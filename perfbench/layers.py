"""Where the traced run wraps the package, and the per-layer metrics read
from its spans.

Every wrapper is installed at the name its caller looks the function up
by: ``control`` imported ``locate`` and ``solve_qp`` into its own
namespace, so wrapping ``regions.locate`` alone would miss the calls made
from the controllers.  Spans are named ``<module>.<function>`` after the
module that defines the function, so metric prefixes are layer names.
"""

from __future__ import annotations

import numpy as np

from empcharge import cli, control, qp, regions
from empcharge import model as mdl

from tracer import END, NAME, NOTE, OP, PARENT, START, by_name, self_times

LAYERS = ("cli", "control", "mpqp", "model", "qp", "regions", "segments")
N_SEGMENTS = 9  # regions.n_regions.seg1 .. seg9


def _miss(out):
    return "miss" if out is None else None


def _status(out):
    return None if out.status == "optimal" else out.status


def patch_all(tr) -> None:
    for attr, name, note in (
            ("run_closed_loop", "control.run_closed_loop", None),
            ("empc_step", "control.empc_step", None),
            ("online_mpc_step", "control.online_mpc_step", None),
            ("nmpc_step", "control.nmpc_step", lambda r: r.iterations),
            ("ekf_step", "control.ekf_step", None),
            ("locate", "regions.locate", _miss),
            ("solve_qp", "qp.solve_qp", _status),
            ("build", "mpqp.build", None),
            ("select_segment", "segments.select_segment", None)):
        tr.patch(control, attr, name, note)
    for attr, name, note in (
            ("main", "cli.main", None),
            ("build_table", "segments.build_table", None),
            ("build", "mpqp.build", None),
            ("explore", "regions.explore", lambda r: r.n_regions),
            ("coverage_check", "regions.coverage_check", None),
            ("export_table", "regions.export_table", None)):
        tr.patch(cli, attr, name, note)
    for attr, name, note in (
            ("region_for", "regions.region_for", None),
            ("_facet_center", "regions._facet_center", None),
            ("locate", "regions.locate", _miss),
            ("solve_qp", "qp.solve_qp", _status),
            ("remove_redundant", "qp.remove_redundant", None),
            ("chebyshev_center", "qp.chebyshev_center", None),
            ("linprog", "qp.linprog", None)):
        tr.patch(regions, attr, name, note)
    for attr, name, note in (
            ("solve_qp", "qp.solve_qp", _status),
            ("lp_feasible", "qp.lp_feasible", None),
            ("chebyshev_center", "qp.chebyshev_center", None),
            ("linprog", "qp.linprog", None)):
        tr.patch(qp, attr, name, note)
    for attr in ("terminal_voltage", "soc", "eta", "discretize"):
        tr.patch(mdl, attr, f"model.{attr}")


# parent span of a LP -> the LP's purpose
_LP_PURPOSE = {"qp.remove_redundant": "remove_redundant",
               "qp.chebyshev_center": "chebyshev_center",
               "regions._facet_center": "facet_center",
               "qp.solve_qp": "phase1"}


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``n_ops`` traced operations.

    Counts are those of operation 0, whose inputs depend only on the seed,
    so they repeat exactly between runs.  Times are per operation (``_s``)
    or percentiles over every traced call (``_us_p50``); ratios pool every
    traced call.
    """
    selfs = self_times(spans)
    every = by_name(spans)
    first = by_name([s for s in spans if s[OP] == 0])

    def count(name):
        return len(first.get(name, ()))

    def dur_us(name):
        return [(s[END] - s[START]) / 1e3 for s in every.get(name, ())]

    def per_op_s(name):
        return sum(dur_us(name)) / 1e6 / n_ops

    def notes(name, group=every):
        return [s[NOTE] for s in group.get(name, ())]

    m: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0)
    for s, t in zip(spans, selfs):
        layer_self[s[NAME].split(".", 1)[0]] += t
    for layer, t in layer_self.items():
        m[f"{layer}.self_s"] = t / 1e9 / n_ops

    m["cli.synthesize_s"] = per_op_s("cli.main")

    # qp: LPs by purpose, LP utilities, the online QP
    lps = every.get("qp.linprog", [])
    m["qp.lp_calls"] = count("qp.linprog")
    m["qp.lp_self_s"] = per_op_s("qp.linprog")
    for purpose in ("remove_redundant", "chebyshev_center", "facet_center"):
        m[f"qp.lp_calls.{purpose}"] = 0
    m["qp.lp_calls.other"] = 0
    m["qp.phase1_lps"] = 0
    for s in first.get("qp.linprog", ()):
        purpose = _LP_PURPOSE.get(spans[s[PARENT]][NAME], "other")
        m["qp.phase1_lps" if purpose == "phase1"
          else f"qp.lp_calls.{purpose}"] += 1
    for fn, key in (("qp.remove_redundant", "remove_redundant"),
                    ("qp.chebyshev_center", "chebyshev")):
        m[f"qp.{key}_calls"] = count(fn)
        m[f"qp.{key}_s"] = per_op_s(fn)
    m["qp.solve_calls"] = count("qp.solve_qp")
    m["qp.solve_us_p50"] = _pct(dur_us("qp.solve_qp"), 50)
    m["qp.solve_us_p99"] = _pct(dur_us("qp.solve_qp"), 99)
    n_phase1 = sum(spans[s[PARENT]][NAME] == "qp.solve_qp" for s in lps)
    m["qp.phase1_ratio"] = _ratio(n_phase1, len(dur_us("qp.solve_qp")))
    m["qp.infeasible_ratio"] = _ratio(
        sum(n is not None for n in notes("qp.solve_qp")),
        len(dur_us("qp.solve_qp")))

    # regions: the explorer and point location
    m["regions.explore_s"] = per_op_s("regions.explore")
    m["regions.explore_worst_seg_s"] = max(dur_us("regions.explore"),
                                           default=0.0) / 1e6
    m["regions.coverage_s"] = per_op_s("regions.coverage_check")
    m["regions.export_s"] = per_op_s("regions.export_table")
    under_explore = 0
    for s in first.get("qp.linprog", ()):
        p = s[PARENT]
        while p is not None and spans[p][NAME] != "regions.explore":
            p = spans[p][PARENT]
        under_explore += p is not None
    m["regions.explore_lp_calls"] = under_explore
    m["regions.region_for_calls"] = count("regions.region_for")
    raised = notes("regions.region_for", first)
    for exc in ("InfeasibleAtTheta0", "DegenerateActiveSet"):
        m[f"regions.region_for_raised.{exc}"] = raised.count(exc)
    kept = [n for n in notes("regions.explore") if isinstance(n, int)]
    m["regions.useful_ratio"] = _ratio(sum(kept),
                                       len(dur_us("regions.region_for")))
    m["regions.facet_center_calls"] = count("regions._facet_center")
    m["regions.locate_calls"] = count("regions.locate")
    m["regions.locate_us_p50"] = _pct(dur_us("regions.locate"), 50)
    m["regions.locate_miss_ratio"] = _ratio(
        notes("regions.locate").count("miss"), len(dur_us("regions.locate")))

    # mpqp, segments, model
    m["mpqp.build_calls"] = count("mpqp.build")
    m["mpqp.build_s"] = per_op_s("mpqp.build")
    m["segments.select_calls"] = count("segments.select_segment")
    m["segments.select_us_p50"] = _pct(dur_us("segments.select_segment"), 50)
    maps = ("model.terminal_voltage", "model.soc", "model.eta")
    m["model.output_map_calls"] = sum(count(n) for n in maps)
    m["model.output_map_us_p50"] = _pct(
        [d for n in maps for d in dur_us(n)], 50)

    # control: steps, guard re-evaluations, NMPC iterations, EKF
    steps = ("control.empc_step", "control.online_mpc_step")
    m["control.steps"] = sum(count(n) for n in steps + ("control.nmpc_step",))
    evals = sum(spans[s[PARENT]][NAME] in steps
                for n in ("regions.locate", "qp.solve_qp")
                for s in first.get(n, ()))
    m["control.guard_evals"] = evals - sum(count(n) for n in steps)
    iters = notes("control.nmpc_step")
    m["control.nmpc_iters_mean"] = float(np.mean(iters)) if iters else 0.0
    m["control.ekf_us_p50"] = _pct(dur_us("control.ekf_step"), 50)
    return m


def fact_metrics(facts: dict) -> dict[str, float]:
    """Per-layer metrics a workload reads from its own outputs; zero where
    the workload does not exercise the layer."""
    m: dict[str, float] = {}
    regs = facts.get("n_regions", {})
    m["regions.n_regions"] = sum(regs.values())
    for i in range(1, N_SEGMENTS + 1):
        m[f"regions.n_regions.seg{i}"] = regs.get(i, 0)
    m["regions.stored_reals"] = facts.get("stored_reals", 0)
    m["model.discretize_s"] = facts["discretize_s"]
    loop_ms = facts.get("loop_ms", {})
    fallback = facts.get("fallback", {})
    step_ns = facts.get("step_ns", {})
    for c in ("empc", "qp", "nmpc"):
        ns = step_ns.get(c, [])
        m[f"control.{c}_step_p50_us"] = _pct(ns, 50) / 1e3
        m[f"control.{c}_step_p99_us"] = _pct(ns, 99) / 1e3
    for c in ("empc", "ekf", "qp", "nmpc"):
        m[f"control.{c}_loop_ms"] = loop_ms.get(c, 0.0)
        m[f"control.fallback_ratio.{c}"] = fallback.get(c, 0.0)
    m["bench.oracle_pts_per_s"] = facts.get("pts_per_s", 0.0)
    return m
