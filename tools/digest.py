"""Content digests of what ``empcharge synthesize`` and ``empcharge run``
write, less their wall times, and of what ``empcharge verify`` prints, one
``name sha256`` line per artifact.

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
over the regions the tables share; for a synthesis report, per segment
both reports have, each of explore's counts and the coverage
(REPORT_KEYS) that differs; and for the QP probe both solve
counts, how many statuses and how many active sets differ, and the
largest absolute difference in z, over the solves both probes have; for
a noisy charge its max V, whether it completed and its fallback count in
both trees; and for a verify output both trees' exit codes and last
lines.
Differences are taken between numbers, so -0.0 against 0.0 is 0.  It
prints nothing and exits 0 when every digest is equal, else it exits 1.

The artifacts:

- for each synthesis block under ``configs/`` (a synthesis config, or the
  ``synthesis`` block of a scenario config): every ``table_seg*`` file and
  ``segments.json`` that ``synthesize`` writes, and its
  ``synthesis_report.json`` without ``wall_s`` and ``wall_time_s``;
- for each scenario config under ``configs/`` (one with a ``synthesis``
  block): the trace CSV of ``run`` without its ``solver_time_ns`` column,
  and the summary without its ``step_ns_*``;
- ``<config>/verify/out`` for each synthesis config under ``configs/``
  (one that is not a scenario or bench config): the exit code, stdout and
  stderr of ``verify --samples VERIFY_SAMPLES`` on the tables that
  ``synthesize`` just wrote for it, with the temporary directory's path
  replaced by ``TMP``.  verify draws its theta at seed 0 and prints no
  time, so this is deterministic;
- ``qp/probe``: the status, active set and bits of z of each solve of the
  online QP, ``solve_qp``, on a fixed, seeded set of QPs (``probe``).
  Random dense QPs, some with a zero row or no feasible point, are each
  solved cold and with a random guess of rows, some of them zero or out
  of range.  Then, for every segment of each config in
  ``PROBE_CONFIGS``, QPs at theta drawn from its theta box, feasible or
  not, are each solved cold and warm from the last theta's active set.
- ``noisy/ekf_case/seedNN``: the trace of ``ekf_case``'s noisy EKF charge
  at each seed of ``NOISY_SEEDS``, as ``run`` writes it but without its
  ``solver_time_ns`` column (``noisy``).  A noisy charge can turn on one
  ulp, so these show a change to the closed loop that the one seeded
  ``ekf_case`` run misses.
- ``noisy/ekf_case-state/seedNN``: the same charges under state
  feedback, the controller seeing the noisy plant state itself.  Read
  next to the EKF charges, they tell a fault of the formulation, which
  shows in both, from one of the estimator, which shows in the EKF
  charges alone.

Usage: ``python3 tools/digest.py [--root TREE] [--diff OTHER] [NAME ...]``.
TREE is the checkout whose ``src/`` and ``configs/`` are used (default: the
one this script is in), and OTHER the checkout it is compared with; the
NAMEs, config file stems such as ``synthesis_default`` or ``basic_case``,
``qp`` for the QP probe or ``noisy`` for the noisy charges, limit the
output to those artifacts.
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

HERE = pathlib.Path(__file__).resolve().parent
PROBE = "qp/probe"
PROBE_CONFIGS = ("synthesis_default", "horizon_Nc_eta9")
PROBE_RANDOM = 600      # random dense QPs
PROBE_THETAS = 60       # theta per segment
NOISY = "ekf_case"      # the scenario of the noisy charges
NOISY_SEEDS = range(20)
VERIFY_SAMPLES = 200    # theta per segment of each verify artifact
# artifact name prefix -> the feedback of those noisy charges
NOISY_FEEDBACKS = {f"noisy/{NOISY}": "ekf", f"noisy/{NOISY}-state": "state"}
# the per-segment synthesis report values --diff compares
REPORT_KEYS = ("n_regions", "candidates", "pruned_rank", "empty_interior",
               "chebyshev_lps", "coverage")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _empcharge(root: pathlib.Path, argv: list[str], ok: tuple[int, ...]):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "empcharge.cli", *argv],
                          env=env, capture_output=True, text=True)
    if proc.returncode not in ok:
        sys.exit(f"empcharge {' '.join(argv)}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    return proc


def _synthesis_lines(root, name: str, block: dict, tmp: pathlib.Path):
    cfg, out = tmp / f"{name}_synthesis.json", tmp / f"{name}_tables"
    cfg.write_text(json.dumps(block))
    _empcharge(root, ["synthesize", "--config", str(cfg),
                      "--out-dir", str(out)], (0,))
    for path in sorted(out.iterdir()):
        data, content = path.read_bytes(), None
        if path.name == "synthesis_report.json":
            report = json.loads(data)
            report.pop("wall_time_s")
            for seg in report["segments"]:
                seg.pop("wall_s")
            data = json.dumps(report, sort_keys=True).encode()
            content = report["segments"]
        elif path.match("table_seg*.json"):
            content = json.loads(data)["regions"]
        yield f"{name}/synthesize/{path.name}", _sha(data), content


def _verify_lines(root, name: str, tmp: pathlib.Path):
    """verify on the tables _synthesis_lines wrote for name; its content
    is the exit code and the last line printed."""
    proc = _empcharge(root, ["verify", "--config",
                             str(tmp / f"{name}_synthesis.json"), "--tables",
                             str(tmp / f"{name}_tables"), "--samples",
                             str(VERIFY_SAMPLES)], (0, 3, 4))
    text = f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}".replace(
        str(tmp), "TMP")
    yield (f"{name}/verify/out", _sha(text.encode()),
           f"exit {proc.returncode}: {text.splitlines()[-1]}")


def _timeless(path: pathlib.Path) -> tuple[str, list[list[str]]]:
    """The text and the rows, header first, of the trace CSV at path less
    its solver_time_ns column."""
    rows = list(csv.reader(io.StringIO(path.read_text())))
    drop = rows[0].index("solver_time_ns")
    rows = [r[:drop] + r[drop + 1:] for r in rows]
    return "\n".join(",".join(r) for r in rows), rows


def _run_lines(root, name: str, tmp: pathlib.Path):
    out = tmp / f"{name}_run"
    _empcharge(root, ["run", "--config", str(root / "configs" /
                                            f"{name}.json"),
                      "--out-dir", str(out)], (0, 2))
    text, rows = _timeless(out / f"{name}_trace.csv")
    yield f"{name}/run/{name}_trace.csv", _sha(text.encode()), rows
    summary = {k: v for k, v in json.loads(
        (out / f"{name}_summary.json").read_text()).items()
        if not k.startswith("step_ns_")}
    yield (f"{name}/run/{name}_summary.json",
           _sha(json.dumps(summary, sort_keys=True).encode()), None)


def probe(root: str) -> None:
    """Print, as JSON, [status, active set, z as float.hex strings or None]
    per solve of the QP probe (module docstring), solved by the empcharge
    that sys.path finds; a QpError's status is its message."""
    from empcharge import cli
    from empcharge.qp import DenseQp, QpError, solve_qp

    def record(qp, guess=()):
        try:
            sol = solve_qp(qp, guess)
        except QpError as exc:
            return [f"QpError: {exc}", [], None]
        return [sol.status, list(sol.active_set), None if sol.z_star is None
                else [float(x).hex() for x in sol.z_star]]

    rng = np.random.default_rng(2301)
    out = []
    for _ in range(PROBE_RANDOM):
        n, m = int(rng.integers(1, 6)), int(rng.integers(0, 13))
        M = rng.normal(size=(n, n))
        H = M @ M.T + 0.1 * np.eye(n)
        G, w = rng.normal(size=(m, n)), rng.normal(0.5, 1.0, m)
        if m and rng.random() < 0.2:
            G[rng.integers(m)] = 0.0
        qp = DenseQp(0.5 * (H + H.T), rng.normal(size=n), G, w)
        guess = rng.choice(m + 1, int(rng.integers(0, min(n, m) + 1)),
                           replace=False)
        out += [record(qp), record(qp, tuple(sorted(guess.tolist())))]
    for name in PROBE_CONFIGS:
        doc = json.loads((pathlib.Path(root) / "configs" / f"{name}.json")
                         .read_text())
        syn = doc.get("synthesis", doc)
        problems, box = cli._synthesis_objects(syn)[-1], cli._theta_box(syn)
        for prob in problems:
            last = ()
            for theta in rng.uniform(box[:, 0], box[:, 1],
                                     (PROBE_THETAS, len(box))):
                cold = record(prob.qp(theta))
                out += [cold, record(prob.qp(theta), last)]
                last = tuple(cold[1])
    print(json.dumps(out))


def noisy(root: str) -> None:
    """Print, as JSON, [name, sha256 of the trace, max V, completed,
    fallback count] per noisy charge: NOISY's charge at each seed of
    NOISY_SEEDS under each feedback of NOISY_FEEDBACKS, run by the
    empcharge that sys.path finds.  The trace is its CSV less the
    solver_time_ns column."""
    import argparse
    import dataclasses

    from empcharge import cli
    from empcharge.control import run_closed_loop

    doc = json.loads((pathlib.Path(root) / "configs" / f"{NOISY}.json")
                     .read_text())
    setup = cli._scenario_setup(doc, argparse.Namespace(
        controller=None, feedback=None, seed=None))
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "trace.csv"
        for prefix, feedback in NOISY_FEEDBACKS.items():
            for seed in NOISY_SEEDS:
                trace = run_closed_loop(dataclasses.replace(
                    setup, feedback=feedback, seed=seed))
                trace.to_csv(path)
                out.append([f"{prefix}/seed{seed:02d}",
                            _sha(_timeless(path)[0].encode()),
                            max(r.V for r in trace.rows), trace.completed,
                            trace.fallback_count])
    print(json.dumps(out))


def _child(root: pathlib.Path, func: str) -> str:
    """What func(root) of this module prints, run in a child process on
    root's src/."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import digest; "
            f"digest.{func}({str(root)!r})")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"digest.{func}: exit {proc.returncode}\n{proc.stderr}")
    return proc.stdout


def digests(root: pathlib.Path, names=()) -> dict[str, tuple]:
    """name -> (sha256, content or None) for the artifacts of the configs
    named (all when empty).  The content of a run trace is its rows,
    header first, less its solver_time_ns column; that of a JSON region
    table is its list of regions; that of a synthesis report is its list
    of segments; that of the QP probe is its records; that of a noisy
    charge is [max V, completed, fallback count]; that of a verify output
    is its exit code and last line."""
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
            if "synthesis" in doc:  # a scenario config
                found += _run_lines(root, name, tmp)
            else:  # a synthesis config
                found += _verify_lines(root, name, tmp)
            out.update((k, (sha, rows)) for k, sha, rows in found)
    if not names or "qp" in names:
        text = _child(root, "probe")
        out[PROBE] = _sha(text.encode()), json.loads(text)
    if not names or "noisy" in names:
        for name, sha, *facts in json.loads(_child(root, "noisy")):
            out[name] = sha, facts
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


def _report_diff(mine: list[dict], theirs: list[dict]) -> list[str]:
    """Per segment both reports have, each REPORT_KEYS value that
    differs."""
    theirs = {seg["index"]: seg for seg in theirs}
    return [f"  segment {seg['index']} {key} {other.get(key)} -> "
            f"{seg.get(key)}"
            for seg in mine if (other := theirs.get(seg["index"]))
            for key in REPORT_KEYS if seg.get(key) != other.get(key)]


def _probe_diff(mine: list[list], theirs: list[list]) -> list[str]:
    """Both solve counts, then over the solves both probes have, how many
    statuses and how many active sets differ, and the largest absolute
    difference in z where both solves have one of the same size."""
    pairs = list(zip(mine, theirs))
    dz = max((abs(float.fromhex(x) - float.fromhex(y))
              for a, b in pairs if a[2] and b[2] and len(a[2]) == len(b[2])
              for x, y in zip(a[2], b[2])), default=0.0)
    return [f"  solves {len(theirs)} -> {len(mine)}",
            f"  statuses differ {sum(a[0] != b[0] for a, b in pairs)}",
            f"  active sets differ {sum(a[1] != b[1] for a, b in pairs)}",
            f"  z {dz:.3g}"]


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
            elif name == PROBE:
                lines += _probe_diff(mine[name][1], theirs[name][1])
            elif name.endswith("synthesis_report.json"):
                lines += _report_diff(mine[name][1], theirs[name][1])
            elif name.endswith("/verify/out"):
                lines += [f"  the other: {theirs[name][1]}",
                          f"  this tree: {mine[name][1]}"]
            elif name.startswith("noisy/"):
                lines += [f"  {key} {b} -> {a}" for key, a, b in zip(
                    ("max V", "completed", "fallbacks"), mine[name][1],
                    theirs[name][1])]
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
