"""Content digests of what ``empcharge synthesize`` and ``empcharge run``
write, less their wall times, one ``name sha256`` line per artifact.

Two checkouts that print the same lines wrote the same tables and the same
traces, so a change that claims identical outputs can be checked with

    python3 tools/digest.py --root PARENT > parent.txt
    python3 tools/digest.py > change.txt
    diff parent.txt change.txt

The artifacts:

- for each synthesis block under ``configs/`` (a synthesis config, or the
  ``synthesis`` block of a scenario config): every ``table_seg*`` file and
  ``segments.json`` that ``synthesize`` writes, and its
  ``synthesis_report.json`` without ``wall_s`` and ``wall_time_s``;
- for the scenarios in ``RUNS``: the trace CSV of ``run`` without its
  ``solver_time_ns`` column, and the summary without its ``step_ns_*``.

Usage: ``python3 tools/digest.py [--root TREE] [NAME ...]``.  TREE is the
checkout whose ``src/`` and ``configs/`` are used (default: the one this
script is in); the NAMEs, config file stems such as ``synthesis_default``
or ``basic_case``, limit the output to those configs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

RUNS = ("basic_case", "basic_case_qp", "ekf_case", "nmpc_case")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _empcharge(root: pathlib.Path, argv: list[str], ok: tuple[int, ...]):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "empcharge.cli", *argv],
                          env=env, capture_output=True, text=True)
    if proc.returncode not in ok:
        sys.exit(f"empcharge {' '.join(argv)}: exit {proc.returncode}\n"
                 f"{proc.stderr}")


def _synthesis_lines(root, name: str, block: dict, tmp: pathlib.Path):
    cfg, out = tmp / f"{name}_synthesis.json", tmp / f"{name}_tables"
    cfg.write_text(json.dumps(block))
    _empcharge(root, ["synthesize", "--config", str(cfg),
                      "--out-dir", str(out)], (0,))
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "synthesis_report.json":
            report = json.loads(data)
            report.pop("wall_time_s")
            for seg in report["segments"]:
                seg.pop("wall_s")
            data = json.dumps(report, sort_keys=True).encode()
        yield f"{name}/synthesize/{path.name}", _sha(data)


def _run_lines(root, name: str, tmp: pathlib.Path):
    out = tmp / f"{name}_run"
    _empcharge(root, ["run", "--config", str(root / "configs" /
                                            f"{name}.json"),
                      "--out-dir", str(out)], (0, 2))
    rows = list(csv.reader(io.StringIO((out / f"{name}_trace.csv")
                                       .read_text())))
    drop = rows[0].index("solver_time_ns")
    text = "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows)
    yield f"{name}/run/{name}_trace.csv", _sha(text.encode())
    summary = {k: v for k, v in json.loads(
        (out / f"{name}_summary.json").read_text()).items()
        if not k.startswith("step_ns_")}
    yield (f"{name}/run/{name}_summary.json",
           _sha(json.dumps(summary, sort_keys=True).encode()))


def digest_lines(root: pathlib.Path, names=()) -> list[str]:
    """The ``name sha256`` lines of the configs named (all when empty)."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for path in sorted((root / "configs").glob("*.json")):
            name = path.stem
            if names and name not in names:
                continue
            doc = json.loads(path.read_text())
            if "scenarios" in doc:  # a bench config
                continue
            lines += [f"{k} {v}" for k, v in _synthesis_lines(
                root, name, doc.get("synthesis", doc), tmp)]
            if name in RUNS:
                lines += [f"{k} {v}" for k, v in _run_lines(root, name, tmp)]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="digest", description=__doc__.split(
        "\n\n")[0])
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parents[1])
    ap.add_argument("names", nargs="*")
    args = ap.parse_args(argv)
    for line in digest_lines(args.root.resolve(), set(args.names)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
