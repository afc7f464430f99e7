"""Command-line front end: offline synthesis, scenario runs, benchmarks,
table export and verification.

Exit codes: 0 success, 2 incomplete charge, 3 synthesis failure or a
malformed config or table, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import model as mdl
from .control import CONTROLLERS, FEEDBACKS, RunSetup, run_closed_loop
from .mpqp import MpcConfig, build
from .qp import solve_qp
from .regions import (DEFAULT_THETA_BOX, ExplicitSolution, coverage_check,
                      explore, export_table, import_table, locate, rounded,
                      _atomic_write)
from .segments import build_table, default_breakpoints

EXIT_OK = 0
EXIT_INCOMPLETE = 2
EXIT_SYNTHESIS = 3
EXIT_VERIFY = 4


class ConfigError(Exception):
    pass


def _check_keys(doc: dict, allowed: set[str], ctx: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")


def _load(path, ctx: str, allowed: set[str] | None = None):
    """The region table at path (allowed=None), or the version-1 config
    with only the allowed keys; ConfigError when it is missing or bad."""
    try:
        if allowed is None:
            return import_table(path)
        with open(path, "rb") as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {ctx} {path}: {exc!r}") from exc
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise ConfigError(f"{ctx} {path}: expected a version-1 object")
    _check_keys(doc, allowed | {"version"}, ctx)
    return doc


_SYNTH_KEYS = {"params", "breakpoints", "gamma1", "gamma2", "dt", "mpc",
               "theta_box", "round_decimals", "coverage_samples", "seed"}
# RunSetup fields a scenario may set, each with its cast (defaults: RunSetup)
_RUN_FIELDS = {"controller": str, "feedback": str, "soc_start": float,
               "soc_target": float, "step_budget": int,
               "stop_at_target": bool, "noise": bool, "seed": int,
               "nmpc_max_iters": int}
_SCENARIO_KEYS = {"name", "synthesis", "tables_dir", *_RUN_FIELDS}
_BENCH_KEYS = {"scenarios", "repeats"}


def _synthesis_objects(doc: dict):
    """params, model, table, cfg, problems from a synthesis config dict;
    ConfigError for a value that any of them rejects."""
    try:
        _check_keys(doc, _SYNTH_KEYS | {"version"}, "synthesis config")
        params = mdl.NdcParams.from_dict(doc.get("params", {}))
        gamma2 = float(doc.get("gamma2", mdl.GAMMA2))
        bp = [tuple(b) for b in doc.get("breakpoints", default_breakpoints())]
        table = build_table(params, bp, float(doc.get("gamma1", mdl.GAMMA1)),
                            gamma2)
        # MpcConfig rejects an unknown mpc key with a TypeError
        cfg = MpcConfig(gamma2=gamma2, **doc.get("mpc", {}))
        model = mdl.discretize(params, float(doc.get("dt", 60.0)))
        problems = [build(model, seg, cfg) for seg in table.segments]
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"synthesis config: {exc}") from exc
    return params, model, table, cfg, problems


def _table_path(tables_dir, seg, fmt: str = "json") -> str:
    return os.path.join(tables_dir, f"table_seg{seg.index}.{fmt}")


def _load_tables(tables_dir, table, cfg) -> list[ExplicitSolution]:
    """Each segment's JSON table; ConfigError for one that is missing,
    malformed or built for another segment or Nu."""
    sols = []
    for seg in table.segments:
        path = _table_path(tables_dir, seg)
        sol = _load(path, "region table")
        if (sol.segment_index, sol.Nu) != (seg.index, cfg.Nu):
            raise ConfigError(f"{path}: segment {sol.segment_index}, Nu="
                              f"{sol.Nu}; expected segment {seg.index}, Nu="
                              f"{cfg.Nu}")
        sols.append(sol)
    return sols


def _theta_box(doc: dict) -> np.ndarray:
    return np.array(doc.get("theta_box", DEFAULT_THETA_BOX), float)


def cmd_synthesize(args) -> int:
    doc = _load(args.config, "synthesis config", _SYNTH_KEYS)
    params, model, table, cfg, problems = _synthesis_objects(doc)
    os.makedirs(args.out_dir, exist_ok=True)
    box = _theta_box(doc)
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    decimals = doc.get("round_decimals")
    n_cov = int(doc.get("coverage_samples", 20000))
    report = {"segments": [], "wall_time_s": None}
    t0 = time.perf_counter()
    failed = False
    for seg, prob in zip(table.segments, problems):
        t_seg = time.perf_counter()
        try:
            sol = rounded(explore(prob, theta_box=box), decimals)
        except Exception as exc:
            print(f"segment {seg.index}: exploration failed: {exc}",
                  file=sys.stderr)
            failed = True
            continue
        cov = coverage_check(sol, prob, n_samples=n_cov, seed=seed + 1)
        for fmt in ("json", "bin"):
            export_table(sol, _table_path(args.out_dir, seg, fmt), fmt=fmt)
        report["segments"].append({
            "index": seg.index,
            "lambda1": seg.lambda1,
            "lambda2": seg.lambda2,
            "r0_const": seg.r0_const,
            "n_regions": sol.n_regions,
            "stored_reals": sol.stored_reals,
            "coverage": cov,
            **sol.stats,
            "wall_s": time.perf_counter() - t_seg,
        })
    report["wall_time_s"] = time.perf_counter() - t0
    report["total_stored_reals"] = sum(s["stored_reals"]
                                       for s in report["segments"])
    table.to_json(os.path.join(args.out_dir, "segments.json"))
    _atomic_write(os.path.join(args.out_dir, "synthesis_report.json"),
                  json.dumps(report, indent=1).encode())
    print(json.dumps(report, indent=1))
    return EXIT_SYNTHESIS if failed else EXIT_OK


def _scenario_setup(doc: dict, args) -> RunSetup:
    syn = doc.get("synthesis", {"version": 1})
    params, model, table, cfg, problems = _synthesis_objects(syn)
    try:
        run = {k: cast(doc[k]) for k, cast in _RUN_FIELDS.items() if k in doc}
        for k in ("controller", "feedback", "seed"):
            if getattr(args, k) is not None:
                run[k] = getattr(args, k)
        setup = RunSetup(params=params, model=model, table=table, cfg=cfg,
                         problems=problems, **run)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"scenario config: {exc}") from exc
    if setup.controller == "empc" and doc.get("tables_dir"):
        setup.solutions = _load_tables(doc["tables_dir"], table, cfg)
    elif setup.controller == "empc":
        box = _theta_box(syn)
        setup.solutions = [explore(p, theta_box=box) for p in problems]
    return setup


def cmd_run(args) -> int:
    doc = _load(args.config, "scenario config", _SCENARIO_KEYS)
    setup = _scenario_setup(doc, args)
    trace = run_closed_loop(setup)
    os.makedirs(args.out_dir, exist_ok=True)
    name = doc.get("name", "scenario")
    trace.to_csv(os.path.join(args.out_dir, f"{name}_trace.csv"))
    gamma2 = setup.cfg.gamma2
    summary = {
        "name": name,
        "completed": trace.completed,
        "charging_steps": trace.charging_steps,
        "charging_time_s": trace.charging_steps * setup.model.dt,
        "final_soc": trace.rows[-1].SoC if trace.rows else None,
        "fallback_count": trace.fallback_count,
        "max_terminal_voltage": max((r.V for r in trace.rows),
                                    default=None),
        "max_eta_violation": max((r.eta - gamma2 for r in trace.rows),
                                 default=None),
    }
    _atomic_write(os.path.join(args.out_dir, f"{name}_summary.json"),
                  json.dumps(summary, indent=1).encode())
    print(json.dumps(summary, indent=1))
    return EXIT_OK if trace.completed else EXIT_INCOMPLETE


def cmd_bench(args) -> int:
    doc = _load(args.config, "bench config", _BENCH_KEYS)
    repeats = doc.get("repeats", 20) if args.repeats is None else args.repeats
    if not (isinstance(repeats, int) and repeats >= 1):
        raise ConfigError(f"repeats must be an integer >= 1, got {repeats!r}")
    base_dir = os.path.dirname(os.path.abspath(args.config))
    if "scenarios" not in doc:
        raise ConfigError("bench config: missing 'scenarios'")
    entries = []
    for ref in doc["scenarios"]:
        path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        sdoc = _load(path, "scenario config", _SCENARIO_KEYS)
        setup = _scenario_setup(sdoc, args)
        per_step_means, pooled, steps = [], [], None
        wall0 = time.perf_counter()
        for _ in range(repeats):
            trace = run_closed_loop(setup)
            ns = [r.solver_time_ns for r in trace.rows]
            per_step_means.append(float(np.mean(ns)))
            pooled.extend(ns)
            steps = trace.charging_steps
        p50, p95, p99 = np.percentile(pooled, [50, 95, 99])
        entries.append({
            "name": sdoc.get("name", os.path.basename(path)),
            "controller": setup.controller,
            "repeats": repeats,
            "steps": steps,
            "mean_step_ns": float(np.mean(per_step_means)),
            "max_step_ns": float(np.max(pooled)),
            "step_ns_p50": float(p50),
            "step_ns_p95": float(p95),
            "step_ns_p99": float(p99),
            "total_wall_s": time.perf_counter() - wall0,
        })
    report = {"entries": entries}
    by_kind = {}
    for en in entries:
        by_kind.setdefault(en["controller"], []).append(en["mean_step_ns"])
    if "empc" in by_kind and "nmpc" in by_kind:
        report["nmpc_over_empc_step_ratio"] = (
            float(np.mean(by_kind["nmpc"]))
            / float(np.mean(by_kind["empc"])))
    os.makedirs(args.out_dir, exist_ok=True)
    _atomic_write(os.path.join(args.out_dir, "bench_report.json"),
                  json.dumps(report, indent=1).encode())
    print(json.dumps(report, indent=1))
    return EXIT_OK


def cmd_export_table(args) -> int:
    sol = rounded(_load(args.table, "region table"), args.round_decimals)
    fmt = args.format or ("bin" if args.out.endswith(".bin") else "json")
    export_table(sol, args.out, fmt=fmt)
    print(f"wrote {args.out} ({fmt}, {sol.n_regions} regions)")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    doc = _load(args.config, "synthesis config", _SYNTH_KEYS)
    _, _, table, cfg, problems = _synthesis_objects(doc)
    box = _theta_box(doc)
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    worst, checked = 0.0, 0
    for seg, prob, sol in zip(table.segments, problems,
                              _load_tables(args.tables, table, cfg)):
        n_done = draws = 0
        while n_done < args.samples:
            # a theta box that is (almost) all infeasible must not hang
            if draws == 100 * args.samples:
                print(f"segment {seg.index}: only {n_done} of "
                      f"{args.samples} theta feasible in {draws} draws",
                      file=sys.stderr)
                return EXIT_VERIFY
            draws += 1
            theta = rng.uniform(box[:, 0], box[:, 1])
            ref = solve_qp(prob.qp(theta))
            if ref.status != "optimal":
                continue
            n_done += 1
            idx = locate(sol, theta)
            if idx is None:
                print(f"segment {seg.index}: no region for theta={theta}",
                      file=sys.stderr)
                return EXIT_VERIFY
            r = sol.regions[idx]
            err = float(np.max(np.abs(r.K @ theta + r.g - ref.z_star)))
            worst = max(worst, err)
            if err > args.tol:
                print(f"segment {seg.index}: law mismatch {err:.3e} at "
                      f"theta={theta}", file=sys.stderr)
                return EXIT_VERIFY
        checked += n_done
    print(f"verify ok: {checked} points, worst error {worst:.3e}")
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="empcharge")
    sub = ap.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="offline region synthesis")
    p_syn.add_argument("--config", required=True)
    p_syn.add_argument("--out-dir", default="out")
    p_syn.add_argument("--seed", type=int, default=None)

    p_run = sub.add_parser("run", help="closed-loop scenario run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default="out")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--controller", choices=CONTROLLERS, default=None)
    p_run.add_argument("--feedback", choices=FEEDBACKS, default=None)

    p_bench = sub.add_parser("bench", help="repeated timing runs")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out-dir", default="out")
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--controller", choices=CONTROLLERS, default=None)
    p_bench.add_argument("--feedback", choices=FEEDBACKS, default=None)
    p_bench.add_argument("--repeats", type=int, default=None)

    p_exp = sub.add_parser("export-table", help="re-export a region table")
    p_exp.add_argument("table")
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--format", choices=["json", "bin"], default=None)
    p_exp.add_argument("--round-decimals", type=int, default=None)

    p_ver = sub.add_parser("verify",
                           help="check stored tables against the QP solver")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--tables", required=True)
    p_ver.add_argument("--samples", type=int, default=1000)
    p_ver.add_argument("--tol", type=float, default=1e-6)
    p_ver.add_argument("--seed", type=int, default=None)

    args = ap.parse_args(argv)
    handlers = {
        "synthesize": cmd_synthesize,
        "run": cmd_run,
        "bench": cmd_bench,
        "export-table": cmd_export_table,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SYNTHESIS


if __name__ == "__main__":
    sys.exit(main())
