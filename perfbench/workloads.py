"""The benchmark's workloads.

A workload builds in ``setup(seed)`` a list of ``items``, the inputs of one
operation: the segments a synthesis explores, the charges a closed loop
runs, the theta points an oracle sweep checks.  The harness calls
``run(item)`` for each item in turn, one caller waiting for each result
(a closed loop), and cycles through the list in passes until the run's
time is up.  ``check(item, out)`` checks each output outside the timed
call; ``op_seconds`` turns per-item times into the time of one operation;
``facts`` reports what the per-layer metrics read from the outputs.

The package is called only through module attributes (``cli.main``,
``control.run_closed_loop``, ``qp.solve_qp``, ``regions.locate``) so that a
traced run can wrap each call where it is looked up.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
from pathlib import Path
from statistics import mean, median
from time import perf_counter

import numpy as np
from scipy.optimize import linprog
from scipy.stats import qmc

from empcharge import cli, control, qp, regions, segments
from empcharge import model as mdl

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
OUT = Path(__file__).resolve().parent / "out"

V_MAX = 4.2        # terminal-voltage limit a charge must respect
V_TOL = 1e-6       # float slack on it: NMPC charges ride the limit exactly
LAW_TOL = 1e-6     # stored law against the online QP, as `empcharge verify`
ORACLE_LOG2_DRAWS = 7  # 128 theta points per segment in oracle_sweep
EKF_CHARGES = 100      # EKF noise realizations in closed_loop_explicit


_REF_A = 0.3 * np.random.default_rng(0).standard_normal((5, 5))
_REF_G = np.vstack([np.eye(3), -np.eye(3)])


def reference() -> None:
    """A fixed computation, timed next to the items to gauge the machine's
    speed at that moment: small numpy products in a Python loop and one
    HiGHS LP through scipy, the program's own mix of work."""
    x = np.zeros(5)
    for _ in range(100):
        x = _REF_A @ x + 1.0
        x = x / (1.0 + float(np.abs(x).max()))
    linprog(-np.ones(3), A_ub=_REF_G, b_ub=np.ones(6), method="highs")


def _load(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


def derived_seed(seed: int, k: int) -> int:
    """The k-th seed derived from the workload seed."""
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


@dataclasses.dataclass
class Objects:
    problems: list
    theta_box: np.ndarray
    discretize_s: float


def build_objects(syn: dict) -> Objects:
    """Condensed problems and theta box of a synthesis block, built by the
    set-up `empcharge synthesize` uses; the model's discretization is
    timed on its own."""
    params, model, _, _, problems = cli._synthesis_objects(syn)
    t0 = perf_counter()
    mdl.discretize(params, model.dt)
    return Objects(problems, cli._theta_box(syn), perf_counter() - t0)


def law_gap(prob, theta, region_at) -> tuple[bool, float]:
    """Solve the online QP at theta, then take the largest gap between its
    solution and the law of the region ``region_at()`` returns, as
    `empcharge verify` does: (feasible, gap).  The gap is infinite when the
    QP is infeasible or ``region_at()`` returns None."""
    ref = qp.solve_qp(qp.DenseQp(prob.Sigma, prob.F @ theta, prob.G,
                                 prob.S @ theta + prob.W))
    if ref.status != "optimal":
        return False, float("inf")
    r = region_at()
    if r is None:
        return True, float("inf")
    return True, float(np.max(np.abs(r.K @ theta + r.g - ref.z_star)))


def _warm_solve(objs: Objects) -> None:
    """One QP solve and one HiGHS LP, so lazy imports and caches are
    loaded before timing."""
    prob = objs.problems[0]
    theta = objs.theta_box.mean(axis=1)
    qp.solve_qp(qp.DenseQp(prob.Sigma, prob.F @ theta, prob.G,
                           prob.S @ theta + prob.W))
    qp.chebyshev_center(*regions.box_halfspaces(objs.theta_box))


@dataclasses.dataclass
class Check:
    """Outcome of checking one call's output."""
    attempted: int
    failed: int
    ok: bool
    info: dict


class Synth:
    """`empcharge synthesize` on one config, one segment per item: explore,
    coverage-check and export (JSON + bin) through ``cli.main``, given a
    config holding that segment's breakpoints only.  An operation is the
    synthesis of every segment."""

    def __init__(self, name: str, config: str, n_segments: int | None):
        self.name = name
        self.config = config
        self.n_segments = n_segments

    def setup(self, seed: int) -> None:
        doc = _load(self.config)
        syn = dict(doc.get("synthesis", doc))
        bps = [list(b) for b in syn.get("breakpoints",
                                        segments.default_breakpoints())]
        bps = bps[:self.n_segments]
        self.objs = build_objects(dict(syn, breakpoints=bps))
        self.items = []
        for j, bp in enumerate(bps):
            out_dir = OUT / self.name / f"seg{j + 1}"
            out_dir.mkdir(parents=True, exist_ok=True)
            config = out_dir / "config.json"
            config.write_text(json.dumps(dict(syn, breakpoints=[bp])))
            self.items.append((j, config, out_dir))
        self.seed = seed
        self.counts: dict[int, int] = {}

    def warmup(self) -> bool:
        _warm_solve(self.objs)
        return True

    def run(self, item) -> int:
        _, config, out_dir = item
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["synthesize", "--config", str(config),
                             "--out-dir", str(out_dir),
                             "--seed", str(self.seed)])

    def check(self, item, rc: int) -> Check:
        """A segment fails unless its coverage is 1.0, its JSON and binary
        tables agree, and at every region's Chebyshev center the stored
        law matches the online QP within LAW_TOL.  Its region count must
        repeat on every pass."""
        j, _, out_dir = item
        if rc != 0:
            return Check(1, 1, False, {})
        (seg,) = json.loads(
            (out_dir / "synthesis_report.json").read_text())["segments"]
        base = out_dir / f"table_seg{seg['index']}"
        sol = regions.import_table(f"{base}.json")
        ok = (seg["coverage"] == 1.0
              and _same_table(sol, regions.import_table(f"{base}.bin")))
        for r in sol.regions:
            center = qp.chebyshev_center(r.E, r.e)
            ok = ok and center is not None and center[1] > 0 and law_gap(
                self.objs.problems[j], center[0], lambda r=r: r)[1] <= LAW_TOL
        n = seg["n_regions"]
        return Check(1, int(not ok), ok and n == self.counts.setdefault(j, n),
                     {"n_regions": n, "stored_reals": seg["stored_reals"]})

    def op_seconds(self, per_item: list[float]) -> float:
        return sum(per_item)

    def facts(self, untraced, traced) -> dict:
        last = {j: info for _, j, info in untraced.infos if info}
        return {"n_regions": {j + 1: i["n_regions"] for j, i in last.items()},
                "stored_reals": sum(i["stored_reals"] for i in last.values()),
                "discretize_s": self.objs.discretize_s}


def _same_table(a, b) -> bool:
    return (a.n_regions == b.n_regions and a.locate_tol == b.locate_tol
            and all(np.array_equal(getattr(ra, k), getattr(rb, k))
                    and ra.active_set == rb.active_set
                    for ra, rb in zip(a.regions, b.regions)
                    for k in ("E", "e", "K", "g")))


class Loop:
    """Full 20% -> 90% charges, one charge per item.

    ``controllers`` names the charges: ``empc``, ``qp`` and ``nmpc`` are
    one state-feedback charge each; ``ekf`` is EKF_CHARGES eMPC charges
    with EKF feedback under measurement and process noise, whose seeds
    derive from the workload seed.  An operation is one charge of each
    controller, the EKF charge taken as the mean over the noise
    realizations.  eMPC tables are synthesized in set-up.
    """

    SCENARIO = {"empc": "basic_case.json", "ekf": "ekf_case.json",
                "qp": "basic_case_qp.json", "nmpc": "nmpc_case.json"}

    def __init__(self, name: str, controllers: tuple[str, ...]):
        self.name = name
        self.controllers = controllers

    def setup(self, seed: int) -> None:
        docs = {c: _load(self.SCENARIO[c]) for c in self.controllers}
        syn = docs[self.controllers[0]]["synthesis"]
        if any(d["synthesis"] != syn for d in docs.values()):
            raise ValueError(f"{sorted(self.SCENARIO[c] for c in docs)} "
                             "must share one synthesis block")
        self.objs = o = build_objects(syn)
        self.solutions = None
        if {"empc", "ekf"} & set(self.controllers):
            self.solutions = [regions.explore(p, theta_box=o.theta_box,
                                              seed=seed) for p in o.problems]
        self.items = []
        for c, doc in docs.items():
            run = self._run_setup(doc)
            if c != "ekf":
                self.items.append((c, run))
                continue
            self.items += [(c, dataclasses.replace(
                run, seed=derived_seed(seed, k))) for k in range(EKF_CHARGES)]
        self.reference: dict[str, list[float]] = {}

    def _run_setup(self, doc: dict) -> control.RunSetup:
        """The charge `empcharge run` runs for a scenario, from the
        CLI's own set-up, with the tables synthesized here.  The CLI is
        asked for an online-QP charge so that it synthesizes no tables of
        its own, with its default seed."""
        run = cli._scenario_setup(doc, argparse.Namespace(
            controller="qp", feedback=None, seed=None))
        return dataclasses.replace(
            run, controller=doc.get("controller", "empc"),
            solutions=self.solutions)

    def warmup(self) -> bool:
        """A warm-up charge per state-feedback controller.  An eMPC charge
        is checked against an online-QP charge: the explicit law must
        reproduce the QP's currents."""
        ok = True
        for c, run in self.items:
            if c == "ekf":
                continue
            trace = control.run_closed_loop(run)
            if c == "empc":
                ref = control.run_closed_loop(
                    dataclasses.replace(run, controller="qp"))
                ok = ok and (trace.charging_steps == ref.charging_steps
                             and all(abs(a.I - b.I) <= LAW_TOL
                                     for a, b in zip(trace.rows, ref.rows)))
        return ok

    def run(self, item):
        return control.run_closed_loop(item[1])

    def check(self, item, trace) -> Check:
        """A charge fails when it misses the SoC target within its step
        budget or the true terminal voltage exceeds V_MAX.  A
        state-feedback charge must also repeat the first one exactly."""
        kind = item[0]
        failed = not (trace.completed
                      and max(r.V for r in trace.rows) <= V_MAX + V_TOL)
        info = {"kind": kind, "steps": trace.charging_steps,
                "fallbacks": trace.fallback_count}
        ok = True
        if kind != "ekf":
            currents = [r.I for r in trace.rows]
            ok = currents == self.reference.setdefault(kind, currents)
            info["step_ns"] = [r.solver_time_ns for r in trace.rows]
        return Check(1, int(failed), ok, info)

    def op_seconds(self, per_item: list[float]) -> float:
        ekf = [t for (c, _), t in zip(self.items, per_item) if c == "ekf"]
        return (sum(t for (c, _), t in zip(self.items, per_item)
                    if c != "ekf") + (mean(ekf) if ekf else 0.0))

    def facts(self, untraced, traced) -> dict:
        kinds = [kind for kind, _ in self.items]
        loop_s: dict[str, list[float]] = {}
        for kind, t in zip(kinds, untraced.per_item(median)):
            loop_s.setdefault(kind, []).append(t)
        step_ns: dict[str, list[int]] = {}
        for _, _, info in untraced.infos:
            step_ns.setdefault(info["kind"], []).extend(
                info.get("step_ns", []))
        steps: dict[str, int] = {}
        fallbacks: dict[str, int] = {}
        for _, _, info in traced.infos:
            k = info["kind"]
            steps[k] = steps.get(k, 0) + info["steps"]
            fallbacks[k] = fallbacks.get(k, 0) + info["fallbacks"]
        facts = {"loop_ms": {k: 1e3 * mean(v) for k, v in loop_s.items()},
                 "fallback": {k: fallbacks[k] / steps[k] for k in steps},
                 "step_ns": {k: v for k, v in step_ns.items() if v},
                 "discretize_s": self.objs.discretize_s}
        if self.solutions is not None:
            facts["n_regions"] = {s.segment_index: s.n_regions
                                  for s in self.solutions}
            facts["stored_reals"] = sum(s.stored_reals
                                        for s in self.solutions)
        return facts


class Oracle:
    """The criterion-02 / `empcharge verify` path, one theta point per
    item: online QP, point location and law check.  Infeasible points are
    skipped, as `verify` skips them.  An operation is the sweep over every
    point.

    The points of each segment are a scrambled Sobol set over its theta
    box, scrambled by the workload seed: uniform like independent draws,
    but even enough that the share of infeasible and phase-1 points, and so
    the work of a sweep, barely moves from one seed to the next.
    """

    name = "oracle_sweep"

    def setup(self, seed: int) -> None:
        self.objs = build_objects(_load("synthesis_default.json"))
        self.solutions = [regions.explore(p, theta_box=self.objs.theta_box,
                                          seed=seed)
                          for p in self.objs.problems]
        rng = np.random.default_rng(seed)
        self.items = []
        for prob, sol in zip(self.objs.problems, self.solutions):
            box = sol.theta_box
            sobol = qmc.Sobol(d=box.shape[0], scramble=True, seed=rng)
            points = qmc.scale(sobol.random_base2(ORACLE_LOG2_DRAWS),
                               box[:, 0], box[:, 1])
            self.items += [(prob, sol, theta) for theta in points]

    def warmup(self) -> bool:
        _warm_solve(self.objs)
        return True

    def run(self, item) -> tuple[bool, bool]:
        """(feasible, failed) for one point."""
        prob, sol, theta = item

        def region_at():
            idx = regions.locate(sol, theta)
            return None if idx is None else sol.regions[idx]

        feasible, gap = law_gap(prob, theta, region_at)
        return feasible, feasible and gap > LAW_TOL

    def check(self, item, out: tuple[bool, bool]) -> Check:
        """A feasible point fails on a locate miss or a law error above
        LAW_TOL."""
        feasible, failed = out
        return Check(int(feasible), int(failed), not failed,
                     {"feasible": feasible})

    def op_seconds(self, per_item: list[float]) -> float:
        return sum(per_item)

    def facts(self, untraced, traced) -> dict:
        feasible = {j for _, j, info in untraced.infos if info["feasible"]}
        return {"n_regions": {s.segment_index: s.n_regions
                              for s in self.solutions},
                "stored_reals": sum(s.stored_reals for s in self.solutions),
                "pts_per_s": (len(feasible)
                              / self.op_seconds(untraced.per_item(min))),
                "discretize_s": self.objs.discretize_s}


WORKLOADS = {
    "synth_default": lambda: Synth("synth_default",
                                   "synthesis_default.json", None),
    # three of the nine segments of the 9-row config keep a pass near the
    # length of a synth_default pass
    "synth_many_rows": lambda: Synth("synth_many_rows",
                                     "horizon_Nc_eta5.json", 3),
    "closed_loop_explicit": lambda: Loop("closed_loop_explicit",
                                         ("empc", "ekf")),
    "closed_loop_online": lambda: Loop("closed_loop_online", ("qp", "nmpc")),
    "oracle_sweep": Oracle,
}
