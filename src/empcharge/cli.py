"""Command-line front end: offline synthesis, scenario runs, benchmarks,
table export and verification.

Exit codes: 0 success, 2 incomplete charge, 3 a usage error or a malformed
config, value or table, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import model as mdl
from .control import CONTROLLERS, FEEDBACKS, RunSetup, run_closed_loop
from .mpqp import MpcConfig, build
from .qp import QpError, load_scipy, solve_qp
from .regions import (DEFAULT_THETA_BOX, ExplicitSolution, coverage_check,
                      explore, export_table, import_table, locate, rounded,
                      _atomic_write)
from .segments import build_table, default_breakpoints

EXIT_OK = 0
EXIT_INCOMPLETE = 2
EXIT_CONFIG = 3
EXIT_VERIFY = 4


class ConfigError(Exception):
    pass


class TableRefused(ConfigError):
    """A table synthesize refuses (exit 4), so run and bench do (exit 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 3, not 2: that is an incomplete charge
        raise ConfigError(f"{self.prog}: {message}")


def _typed(value, what: str, kind: type, lo: float = -math.inf,
           hi: float = math.inf):
    """value when it has the JSON type kind, and a number is finite and in
    [lo, hi]; ConfigError otherwise.  An int is accepted where a float is
    expected and read as one; a bool is never a number."""
    number = kind in (int, float)
    ok = type(value) is kind or (kind is float and type(value) is int)
    if ok and number:
        ok = lo <= value <= hi and abs(value) <= sys.float_info.max
    if not ok:
        raise ConfigError(f"{what}: expected {kind.__name__}" + (
            f" in [{lo}, {hi}]" if number else "") + f", got {value!r}")
    return float(value) if kind is float else value


def _checked(doc: dict, kinds: dict, ctx: str) -> dict:
    """doc with each value read by _typed as its key's kind: a type, or a
    (type, lo[, hi]) tuple; ConfigError for an unknown key."""
    unknown = set(doc) - set(kinds)
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")
    return {k: _typed(v, f"{ctx}: {k}", *(kinds[k] if isinstance(
        kinds[k], tuple) else (kinds[k],))) for k, v in doc.items()}


def _version1(doc, what: str):
    """doc when it is a version-1 object; ConfigError otherwise."""
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise ConfigError(f"{what}: expected a version-1 object")
    return doc


def _load(path, ctx: str, kinds: dict | None = None):
    """The region table at path (kinds=None), or the version-1 config
    checked against kinds (json reads NaN, Infinity and 1e999, and
    _typed rejects them); ConfigError when it is missing or bad."""
    try:
        if kinds is None:
            return import_table(path)
        with open(path, "rb") as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {ctx} {path}: {exc!r}") from exc
    return _checked(_version1(doc, f"{ctx} {path}"), kinds, ctx)


def _check_out_dir(path) -> None:
    """ConfigError unless os.makedirs can make path or it is a directory:
    the nearest of it and its parents that exists must be a directory.
    Nothing is created."""
    found = os.path.abspath(path)
    while not os.path.lexists(found):
        found = os.path.dirname(found)
    if not os.path.isdir(found):
        raise ConfigError(f"--out-dir {path}: {found} is not a directory")


def _write_report(out_dir, name: str, report: dict) -> None:
    """Write a JSON report into out_dir and echo it on stdout."""
    text = json.dumps(report, indent=1)
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, name), text.encode())
    print(text)


# np.round(x, d) needs a finite 10.0**d
_DECIMALS = (int, 0, sys.float_info.max_10_exp)
_SYNTH_KINDS = {"version": int, "params": dict, "breakpoints": list,
                "gamma1": float, "gamma2": float, "dt": float, "mpc": dict,
                "theta_box": list, "round_decimals": _DECIMALS,
                "coverage_samples": (int, 1), "seed": (int, 0)}
# the JSON kind of a dataclass field, by its annotation
_JSON_KINDS = {"str": str, "int": int, "float": float, "bool": bool}
# the mpc keys are MpcConfig's fields; gamma2 comes from the block itself
_MPC_KINDS = {f.name: _JSON_KINDS[f.type]
              for f in fields(MpcConfig) if f.name != "gamma2"}
# a scenario may set the RunSetup fields of a JSON kind (defaults and
# ranges: RunSetup); the model and tables come from synthesis
_RUN_FIELDS = {f.name: _JSON_KINDS[f.type]
               for f in fields(RunSetup) if f.type in _JSON_KINDS}
_SCENARIO_KINDS = {"version": int, "name": str, "synthesis": dict,
                   "tables_dir": str, **_RUN_FIELDS}
_BENCH_KINDS = {"version": int, "scenarios": list, "repeats": int}


def _rows(value, width: int, what: str) -> list[tuple[float, ...]]:
    """value as a list of rows of width numbers; ConfigError otherwise."""
    if not all(type(r) is list and len(r) == width
               for r in _typed(value, what, list)):
        raise ConfigError(f"{what}: expected rows of {width} numbers")
    return [tuple(_typed(v, what, float) for v in r) for r in value]


def _synthesis_objects(doc: dict):
    """params, model, table, cfg, problems from a synthesis config dict;
    ConfigError for a value that any of them rejects, or for a condensed
    problem whose norm overflows, as the QP's and the Chebyshev LP's row
    norms then would.  The commands read the other keys of the block after
    this check."""
    doc = _checked(doc, _SYNTH_KINDS, "synthesis config")
    _theta_box(doc)
    params = {k: _typed(v, f"params: {k}", float)
              for k, v in doc.get("params", {}).items()}
    mpc = _checked(doc.get("mpc", {}), _MPC_KINDS, "mpc")
    bp = (_rows(doc["breakpoints"], 3, "breakpoints")
          if "breakpoints" in doc else default_breakpoints())
    try:
        params = mdl.NdcParams.from_dict(params)
        table = build_table(params, bp, doc.get("gamma1", mdl.GAMMA1))
        cfg = MpcConfig(gamma2=doc.get("gamma2", mdl.GAMMA2), **mpc)
        model = mdl.discretize(params, doc.get("dt", 60.0))
        with np.errstate(over="ignore"):  # an overflow is refused here
            problems = [build(model, seg, cfg) for seg in table.segments]
            for p in problems:
                if not all(np.isfinite(np.linalg.norm(a))
                           for a in (p.Sigma, p.F, p.G, p.S, p.W)):
                    raise ValueError(f"segment {p.segment_index}: the "
                                     "condensed problem's norm is not "
                                     "finite")
    except ValueError as exc:
        raise ConfigError(f"synthesis config: {exc}") from exc
    return params, model, table, cfg, problems


def _theta_box(doc: dict) -> np.ndarray:
    """The block's theta box; ConfigError unless it is 5 [lo, hi] pairs
    with lo < hi."""
    box = (np.array(_rows(doc["theta_box"], 2, "theta_box"))
           if "theta_box" in doc else DEFAULT_THETA_BOX)
    if box.shape != DEFAULT_THETA_BOX.shape or not all(box[:, 0] < box[:, 1]):
        raise ConfigError("theta_box: expected 5 [lo, hi] with lo < hi, got "
                          f"{box.tolist()}")
    return box


def _table_path(tables_dir, index: int, ext: str = "json") -> str:
    return os.path.join(tables_dir, f"table_seg{index}.{ext}")


def _stored_table(tables_dir, prob, box) -> ExplicitSolution:
    """prob's segment's JSON table in tables_dir, admitted by the one rule
    that run, bench and verify share; ConfigError for one that is missing,
    malformed, built for another segment or Nu, explored on another theta
    box than box, or with an active-set row past prob's constraint rows."""
    path = _table_path(tables_dir, prob.segment_index)
    sol = _load(path, "region table")
    m, Nu = prob.G.shape
    if (sol.segment_index, sol.Nu) != (prob.segment_index, Nu):
        raise ConfigError(f"{path}: segment {sol.segment_index}, Nu="
                          f"{sol.Nu}; expected segment {prob.segment_index}, "
                          f"Nu={Nu}")
    if not np.array_equal(sol.theta_box, box):
        raise ConfigError(f"{path}: theta box {sol.theta_box.tolist()}; "
                          f"the config's is {box.tolist()}")
    rows = [i for r in sol.regions for i in r.active_set if i >= m]
    if rows:
        raise ConfigError(f"{path}: active-set row {rows[0]}; the config "
                          f"has {m} constraint rows")
    return sol


def _segment_table(prob, doc: dict, seed: int, tables_dir=None):
    """(table, coverage) of prob: read from tables_dir when it is set, else
    explored and rounded as synthesize writes it; either on the block
    doc's theta box.  TableRefused for a table of no region or a coverage
    below 1, sampled with doc's coverage_samples at seed + 1.  ConfigError
    naming the segment for a QpError, such as an LP HiGHS rejects."""
    where, box = f"segment {prob.segment_index}", _theta_box(doc)
    try:
        sol = (_stored_table(tables_dir, prob, box) if tables_dir else
               rounded(explore(prob, theta_box=box),
                       doc.get("round_decimals")))
        if not sol.regions:
            raise TableRefused(f"{where}: no critical region in the theta box")
        cov = coverage_check(sol, prob, n_samples=doc.get(
            "coverage_samples", 20000), seed=seed + 1)
    except QpError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if cov < 1.0:
        raise TableRefused(f"{where}: coverage {cov} is below 1: a sampled "
                           "feasible theta lies in no region")
    return sol, cov


def cmd_synthesize(args) -> int:
    doc = _load(args.config, "synthesis config", _SYNTH_KINDS)
    _, _, table, cfg, problems = _synthesis_objects(doc)
    seed = doc.get("seed", 0) if args.seed is None else args.seed
    _check_out_dir(args.out_dir)
    load_scipy()  # before the clocks: wall_s and wall_time_s exclude it
    report = {"segments": [], "wall_time_s": None}
    t0 = time.perf_counter()
    made = []  # every segment's table before the first write
    for prob in problems:
        t_seg = time.perf_counter()
        try:
            made.append((*_segment_table(prob, doc, seed),
                         time.perf_counter() - t_seg))
        except TableRefused as exc:
            print(exc, file=sys.stderr)
            return EXIT_VERIFY
    os.makedirs(args.out_dir, exist_ok=True)
    for seg, (sol, cov, wall_s) in zip(table.segments, made):
        for ext in ("json", "bin"):
            export_table(sol, _table_path(args.out_dir, seg.index, ext))
        report["segments"].append({
            "index": seg.index,
            "lambda1": seg.lambda1,
            "lambda2": seg.lambda2,
            "r0_const": seg.r0_const,
            "n_regions": sol.n_regions,
            "stored_reals": sol.stored_reals,
            "coverage": cov,
            **sol.stats,
            "wall_s": wall_s,
        })
    report["wall_time_s"] = time.perf_counter() - t0
    report["total_stored_reals"] = sum(s["stored_reals"]
                                       for s in report["segments"])
    _atomic_write(os.path.join(args.out_dir, "segments.json"),
                  table.to_json(cfg.gamma2).encode())
    _write_report(args.out_dir, "synthesis_report.json", report)
    return EXIT_OK


def _scenario_setup(doc: dict, args) -> RunSetup:
    doc = _checked(doc, _SCENARIO_KINDS, "scenario config")
    name = doc.get("name", "scenario")  # run writes <name>_summary.json
    if name in (".", "..") or "/" in name or "\0" in name:
        raise ConfigError(f"scenario config: name {name!r} is not a file name")
    syn = _version1(doc.get("synthesis", {"version": 1}),
                    "scenario config: synthesis")
    params, model, table, cfg, problems = _synthesis_objects(syn)
    run = {k: doc[k] for k in _RUN_FIELDS if k in doc}
    run.update({k: getattr(args, k) for k in ("controller", "feedback", "seed")
                if getattr(args, k) is not None})
    try:  # before any region table is read or synthesized
        RunSetup.check(run, table, _theta_box(syn))
    except ValueError as exc:
        raise ConfigError(f"scenario config: {exc}") from exc
    solutions = None
    if run.get("controller", RunSetup.controller) == "empc":
        # stored or not, a table synthesize would refuse is exit 3 here
        solutions = [_segment_table(p, syn, syn.get("seed", 0),
                                    doc.get("tables_dir"))[0]
                     for p in problems]
    try:
        return RunSetup(params=params, model=model, table=table, cfg=cfg,
                        solutions=solutions, **run)
    except ValueError as exc:
        raise ConfigError(f"scenario config: {exc}") from exc


def cmd_run(args) -> int:
    doc = _load(args.config, "scenario config", _SCENARIO_KINDS)
    _check_out_dir(args.out_dir)
    setup = _scenario_setup(doc, args)
    trace = run_closed_loop(setup)
    name = doc.get("name", "scenario")
    step_ns = [r.solver_time_ns for r in trace.rows]  # step_budget >= 1
    summary = {
        "name": name,
        "completed": trace.completed,
        "charging_steps": trace.charging_steps,
        "charging_time_s": trace.charging_steps * setup.model.dt,
        "final_soc": trace.rows[-1].SoC,
        "fallback_count": trace.fallback_count,
        "max_terminal_voltage": max(r.V for r in trace.rows),
        "max_eta_violation": max(r.eta - setup.cfg.gamma2
                                 for r in trace.rows),
        "step_ns_p50": float(np.percentile(step_ns, 50)),
        "step_ns_max": max(step_ns),
        "phase1_lps": trace.phase1_lps,
    }
    _write_report(args.out_dir, f"{name}_summary.json", summary)
    trace.to_csv(os.path.join(args.out_dir, f"{name}_trace.csv"))
    return EXIT_OK if trace.completed else EXIT_INCOMPLETE


def cmd_bench(args) -> int:
    doc = _load(args.config, "bench config", _BENCH_KINDS)
    repeats = doc.get("repeats", 20) if args.repeats is None else args.repeats
    _typed(repeats, "repeats", int, 1)
    _check_out_dir(args.out_dir)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    if "scenarios" not in doc:
        raise ConfigError("bench config: missing 'scenarios'")
    scenarios = []  # every scenario is checked before the first charge
    for ref in doc["scenarios"]:
        ref = _typed(ref, "bench config: scenarios", str)
        path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        sdoc = _load(path, "scenario config", _SCENARIO_KINDS)
        scenarios.append((sdoc.get("name", os.path.basename(path)),
                          _scenario_setup(sdoc, args)))
    entries = []
    for name, setup in scenarios:
        per_step_means, pooled = [], []
        wall0 = time.perf_counter()
        for _ in range(repeats):
            trace = run_closed_loop(setup)
            ns = [r.solver_time_ns for r in trace.rows]
            per_step_means.append(float(np.mean(ns)))
            pooled.extend(ns)
        entries.append({
            "name": name,
            "controller": setup.controller,
            "repeats": repeats,
            "steps": trace.charging_steps,
            "phase1_lps": trace.phase1_lps,
            "mean_step_ns": float(np.mean(per_step_means)),
            "max_step_ns": float(np.max(pooled)),
            **{f"step_ns_p{q}": float(np.percentile(pooled, q))
               for q in (50, 95, 99)},
            "total_wall_s": time.perf_counter() - wall0,
        })
    report = {"entries": entries}
    means = {c: [e["mean_step_ns"] for e in entries if e["controller"] == c]
             for c in ("empc", "nmpc")}
    if all(means.values()):
        report["nmpc_over_empc_step_ratio"] = (float(np.mean(means["nmpc"]))
                                               / float(np.mean(means["empc"])))
    _write_report(args.out_dir, "bench_report.json", report)
    return EXIT_OK


def cmd_export_table(args) -> int:
    if args.round_decimals is not None:
        _typed(args.round_decimals, "--round-decimals", *_DECIMALS)
    sol = rounded(_load(args.table, "region table"), args.round_decimals)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if os.path.isdir(args.out) or not os.path.isdir(out_dir):
        raise ConfigError(f"--out {args.out}: not a file in an existing "
                          "directory")
    fmt = export_table(sol, args.out)
    print(f"wrote {args.out} ({fmt}, {sol.n_regions} regions)")
    return EXIT_OK


def cmd_verify(args) -> int:
    _typed(args.samples, "--samples", int, 1)
    _typed(args.tol, "--tol", float, 0)
    doc = _load(args.config, "synthesis config", _SYNTH_KINDS)
    problems, box = _synthesis_objects(doc)[-1], _theta_box(doc)
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    worst, checked = 0.0, 0
    for prob, sol in zip(problems, [_stored_table(args.tables, p, box)
                                    for p in problems]):
        where = f"segment {prob.segment_index}"
        n_done = draws = 0
        seg_worst = 0.0
        while n_done < args.samples:
            # a theta box that is (almost) all infeasible must not hang
            if draws == 100 * args.samples:
                print(f"{where}: only {n_done} of {args.samples} theta "
                      f"feasible in {draws} draws", file=sys.stderr)
                return EXIT_VERIFY
            draws += 1
            theta = rng.uniform(box[:, 0], box[:, 1])
            # the located region's active set only guides the solve:
            # solve_qp returns the QP's unique optimum whatever the guess
            idx = locate(sol, theta)
            ref = solve_qp(prob.qp(theta),
                           () if idx is None else sol.regions[idx].active_set)
            if ref.status != "optimal":
                continue
            n_done += 1
            if idx is None:
                print(f"{where}: no region for theta={theta}",
                      file=sys.stderr)
                return EXIT_VERIFY
            r = sol.regions[idx]
            err = float(np.max(np.abs(r.K @ theta + r.g - ref.z_star)))
            seg_worst = max(seg_worst, err)
            if err > args.tol:
                print(f"{where}: law mismatch {err:.3e} at theta={theta}",
                      file=sys.stderr)
                return EXIT_VERIFY
        print(f"{where}: {n_done} points, worst error {seg_worst:.3e}")
        worst = max(worst, seg_worst)
        checked += n_done
    print(f"verify ok: {checked} points, worst error {worst:.3e}")
    return EXIT_OK


def main(argv=None) -> int:
    commands = {
        "synthesize": (cmd_synthesize, "offline region synthesis"),
        "run": (cmd_run, "closed-loop scenario run"),
        "bench": (cmd_bench, "repeated timing runs"),
        "export-table": (cmd_export_table, "re-export a region table"),
        "verify": (cmd_verify, "check stored tables against the QP solver"),
    }
    ap = _Parser(prog="empcharge")
    sub = ap.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, help=text)
         for name, (_, text) in commands.items()}
    for name in ("synthesize", "run", "bench", "verify"):
        p[name].add_argument("--config", required=True)
        p[name].add_argument("--seed", type=int)
    for name in ("synthesize", "run", "bench"):
        p[name].add_argument("--out-dir", default="out")
    for name in ("run", "bench"):
        p[name].add_argument("--controller", choices=CONTROLLERS)
        p[name].add_argument("--feedback", choices=FEEDBACKS)
    p["bench"].add_argument("--repeats", type=int)
    p["export-table"].add_argument("table")
    p["export-table"].add_argument("--out", required=True)
    p["export-table"].add_argument("--round-decimals", type=int)
    p["verify"].add_argument("--tables", required=True)
    p["verify"].add_argument("--samples", type=int, default=1000)
    p["verify"].add_argument("--tol", type=float, default=1e-6)

    try:
        args = ap.parse_args(argv)
        if getattr(args, "seed", None) is not None:
            _typed(args.seed, "--seed", int, 0)
        return commands[args.command][0](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
