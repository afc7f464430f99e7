"""Content digests of what ``empcharge synthesize`` and ``empcharge run``
write, less their wall times, one ``name sha256`` line per artifact.

Two checkouts that print the same lines wrote the same tables and the same
traces, so a change that claims identical outputs can be checked with

    python3 tools/digest.py --root PARENT > parent.txt
    python3 tools/digest.py > change.txt
    diff parent.txt change.txt

and a change that claims outputs within a tolerance with

    python3 tools/digest.py --diff PARENT

which prints, for each artifact whose digest differs from PARENT's, its
name; for a run trace also both step counts and the largest absolute
difference per column over the steps the traces share; and for a JSON
region table also both region counts, whether the active sets are equal
in order, and the largest absolute difference in each of E, e, K and g
over the regions the tables share.  Differences are taken between
numbers, so -0.0 against 0.0 is 0.  It prints nothing and exits 0 when
every digest is equal, else it exits 1.

The artifacts:

- for each synthesis block under ``configs/`` (a synthesis config, or the
  ``synthesis`` block of a scenario config): every ``table_seg*`` file and
  ``segments.json`` that ``synthesize`` writes, and its
  ``synthesis_report.json`` without ``wall_s`` and ``wall_time_s``;
- for the scenarios in ``RUNS``: the trace CSV of ``run`` without its
  ``solver_time_ns`` column, and the summary without its ``step_ns_*``.

Usage: ``python3 tools/digest.py [--root TREE] [--diff OTHER] [NAME ...]``.
TREE is the checkout whose ``src/`` and ``configs/`` are used (default: the
one this script is in), and OTHER the checkout it is compared with; the
NAMEs, config file stems such as ``synthesis_default`` or ``basic_case``,
limit the output to those configs.
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

import numpy as np

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
        table = (json.loads(data)["regions"]
                 if path.match("table_seg*.json") else None)
        yield f"{name}/synthesize/{path.name}", _sha(data), table


def _run_lines(root, name: str, tmp: pathlib.Path):
    out = tmp / f"{name}_run"
    _empcharge(root, ["run", "--config", str(root / "configs" /
                                            f"{name}.json"),
                      "--out-dir", str(out)], (0, 2))
    rows = list(csv.reader(io.StringIO((out / f"{name}_trace.csv")
                                       .read_text())))
    drop = rows[0].index("solver_time_ns")
    rows = [r[:drop] + r[drop + 1:] for r in rows]
    text = "\n".join(",".join(r) for r in rows)
    yield f"{name}/run/{name}_trace.csv", _sha(text.encode()), rows
    summary = {k: v for k, v in json.loads(
        (out / f"{name}_summary.json").read_text()).items()
        if not k.startswith("step_ns_")}
    yield (f"{name}/run/{name}_summary.json",
           _sha(json.dumps(summary, sort_keys=True).encode()), None)


def digests(root: pathlib.Path, names=()) -> dict[str, tuple]:
    """name -> (sha256, content or None) for the artifacts of the configs
    named (all when empty).  The content of a run trace is its rows,
    header first, less its solver_time_ns column; that of a JSON region
    table is its list of regions."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for path in sorted((root / "configs").glob("*.json")):
            name = path.stem
            if names and name not in names:
                continue
            doc = json.loads(path.read_text())
            if "scenarios" in doc:  # a bench config
                continue
            found = list(_synthesis_lines(root, name,
                                          doc.get("synthesis", doc), tmp))
            if name in RUNS:
                found += _run_lines(root, name, tmp)
            out.update((k, (sha, rows)) for k, sha, rows in found)
    return out


def _trace_diff(mine: list[list[str]], theirs: list[list[str]],
                ) -> list[str]:
    """Both step counts, then per column of mine that theirs has, the
    largest absolute difference over the steps both traces have."""
    lines = [f"  steps {len(theirs) - 1} -> {len(mine) - 1}"]
    for col in mine[0]:
        if col not in theirs[0]:
            lines.append(f"  {col} only in this tree")
            continue
        i, j = mine[0].index(col), theirs[0].index(col)
        worst = max((abs(float(a[i]) - float(b[j]))
                     for a, b in zip(mine[1:], theirs[1:])), default=0.0)
        lines.append(f"  {col} {worst:.3g}")
    return lines


def _table_diff(mine: list[dict], theirs: list[dict]) -> list[str]:
    """Both region counts, whether the active sets are equal in order,
    then per array the largest absolute difference over the regions both
    tables have ("shapes differ" when a pair of them cannot be compared)."""
    same = [r["active_set"] for r in mine] == [r["active_set"]
                                               for r in theirs]
    lines = [f"  regions {len(theirs)} -> {len(mine)}",
             f"  active sets {'equal' if same else 'differ'}"]
    for key in ("E", "e", "K", "g"):
        pairs = [(np.array(a[key], float), np.array(b[key], float))
                 for a, b in zip(mine, theirs)]
        if any(a.shape != b.shape for a, b in pairs):
            lines.append(f"  {key} shapes differ")
            continue
        worst = max((np.abs(a - b).max(initial=0.0) for a, b in pairs),
                    default=0.0)
        lines.append(f"  {key} {worst:.3g}")
    return lines


def diff_lines(mine: dict, theirs: dict) -> list[str]:
    """What differs between two digests() results, mine against theirs."""
    lines = []
    for name in sorted(mine.keys() | theirs.keys()):
        if name not in theirs or name not in mine:
            lines.append(f"{name} only in "
                         f"{'this tree' if name in mine else 'the other'}")
        elif mine[name][0] != theirs[name][0]:
            lines.append(f"{name} differs")
            if name.endswith(".csv"):
                lines += _trace_diff(mine[name][1], theirs[name][1])
            elif mine[name][1] is not None:
                lines += _table_diff(mine[name][1], theirs[name][1])
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="digest", description=__doc__.split(
        "\n\n")[0])
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parents[1])
    ap.add_argument("--diff", type=pathlib.Path, metavar="OTHER")
    ap.add_argument("names", nargs="*")
    args = ap.parse_args(argv)
    mine = digests(args.root.resolve(), set(args.names))
    if args.diff is None:
        for name, (sha, _) in mine.items():
            print(name, sha)
        return 0
    lines = diff_lines(mine, digests(args.diff.resolve(), set(args.names)))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
