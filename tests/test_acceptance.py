"""Acceptance gate: one test per criterion.

Each test prints a single "[criterion NN] PASS/FAIL: ..." line with the
measured quantity before asserting, so the verbose pytest log carries both
the verdict and the evidence.
"""

import time

import numpy as np
import pytest

from empcharge import model as mdl
from empcharge.control import RunSetup, run_closed_loop
from empcharge.mpqp import MpcConfig, build
from empcharge.qp import DenseQp, solve_qp
from empcharge.regions import _facet_center, explore, locate, rounded
from empcharge.segments import (build_table, default_breakpoints,
                                linearize_at, select_segment)

GOLDEN = [
    (0.39, 0.6505, 3.3701, 0.091),
    (0.60, 0.8659, 3.2685, 0.096),
    (0.70, 0.8562, 3.2752, 0.107),
    (0.74, 0.8503, 3.2794, 0.116),
    (0.78, 0.8581, 3.2734, 0.129),
    (0.81, 0.8810, 3.2551, 0.142),
    (0.84, 0.9259, 3.2181, 0.161),
    (0.87, 1.0002, 3.1544, 0.185),
    (0.90, 1.1123, 3.0551, 0.219),
]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _setup(params, dmodel, table, cfg, problems, solutions, **kw):
    return RunSetup(params=params, model=dmodel, table=table, cfg=cfg,
                    solutions=solutions, **kw)


@pytest.fixture(scope="module")
def basic_trace(params, dmodel, table, cfg, problems, solutions):
    return run_closed_loop(_setup(params, dmodel, table, cfg, problems,
                                  solutions))


def test_criterion_01_linearization_golden(params):
    worst = 0.0
    for vs_op, l1, l2, r0c in GOLDEN:
        got = linearize_at(params, vs_op)
        worst = max(worst, abs(got[0] - l1), abs(got[1] - l2),
                    abs(got[2] - r0c))
    _report(1, worst <= 1e-3,
            f"max |triple error| = {worst:.2e} (tol 1e-3)")


def test_criterion_02_oracle_equivalence(problems, solutions):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for p, sol in zip(problems, solutions):
        box = sol.theta_box
        n_done = 0
        while n_done < 10_000:
            theta = rng.uniform(box[:, 0], box[:, 1])
            ref = solve_qp(DenseQp(p.Sigma, p.F @ theta, p.G,
                                   p.S @ theta + p.W))
            if ref.status != "optimal":
                continue
            n_done += 1
            idx = locate(sol, theta)
            assert idx is not None, (p.segment_index, theta)
            r = sol.regions[idx]
            err = float(np.max(np.abs(r.K @ theta + r.g - ref.z_star)))
            worst = max(worst, err)
    _report(2, worst <= 1e-6,
            f"9x10^4 points, max law error = {worst:.2e} (tol 1e-6)")


def test_criterion_03_region_count(solutions):
    counts = [s.n_regions for s in solutions]
    ok = all(5 <= c <= 40 for c in counts)
    _report(3, ok, f"per-segment region counts = {counts} (window [5, 40])")


def test_criterion_04_basic_closed_loop(params, table, cfg, basic_trace):
    trace = basic_trace
    rows = trace.rows
    final_soc = rows[-1].SoC
    ok = trace.completed and len(rows) <= 150 and final_soc >= 0.895
    # current saturates within the first few intervals (the ramp is limited
    # by the eta constraint), then tapers: nonincreasing 5-step moving
    # average after the last saturated step
    I = np.array([r.I for r in rows[1:]])  # applied current per interval
    sat = bool(np.max(I[:5]) >= 3.0 - 1e-9)
    peak = int(np.flatnonzero(I >= np.max(I) - 1e-9)[-1])
    ma = np.convolve(I[peak:], np.ones(5) / 5, mode="valid")
    taper = bool(np.all(np.diff(ma) <= 1e-6))
    # linear output bounds via the governing segment map, and the true
    # nonlinear terminal voltage
    lin_viol = 0.0
    max_v = 0.0
    for r in rows:
        seg = table.segments[select_segment(table, r.Vs)]
        y = seg.C_mat @ np.array([r.Vb, r.Vs, r.I]) + seg.D_vec
        lin_viol = max(lin_viol, y[1] - 0.95, y[2] - 3.0, -y[2],
                       y[3] - 4.2, y[4] - cfg.gamma2)
        max_v = max(max_v, r.V)
    ok = ok and sat and taper and lin_viol <= 1e-6 and max_v <= 4.2
    _report(4, ok,
            f"steps={len(rows)} final_soc={final_soc:.4f} sat={sat} "
            f"taper={taper} lin_viol={lin_viol:.2e} maxV={max_v:.4f}")


def test_criterion_05_empc_vs_nmpc(params, dmodel, table, cfg, problems,
                                   solutions, basic_trace):
    nm = run_closed_loop(_setup(params, dmodel, table, cfg, problems,
                                solutions, controller="nmpc"))
    a, b = basic_trace.soc_series(), nm.soc_series()
    n = min(len(a), len(b))
    dev = float(np.max(np.abs(a[:n] - b[:n])))
    _report(5, dev <= 0.01,
            f"max |SoC_empc - SoC_nmpc| = {dev:.4f} (tol 0.01)")


def test_criterion_06_gamma_sweep(params, dmodel):
    steps = []
    for g1 in (0.0, -0.04, -0.08):
        table = build_table(params, default_breakpoints(), g1)
        cfg = MpcConfig()
        problems = [build(dmodel, s, cfg) for s in table.segments]
        trace = run_closed_loop(_setup(params, dmodel, table, cfg,
                                       problems, None, controller="qp"))
        steps.append(trace.charging_steps)
    ok = steps[0] < steps[1] < steps[2]
    _report(6, ok, f"charging steps across gamma1 sweep = {steps} "
                   "(must strictly increase)")


def test_criterion_07_horizon_insensitivity(params, dmodel, table):
    def run(cfg):
        problems = [build(dmodel, s, cfg) for s in table.segments]
        trace = run_closed_loop(_setup(params, dmodel, table, cfg,
                                       problems, None, controller="qp",
                                       stop_at_target=False))
        return trace.soc_series()

    base = run(MpcConfig())
    variants = {
        "N=50": MpcConfig(N=50),
        "N=90": MpcConfig(N=90),
        "Nu=5": MpcConfig(Nu=5),
        "Nu=9": MpcConfig(Nu=9),
        "Nc_eta=5": MpcConfig(Nc_eta=5),
        "Nc_eta=9": MpcConfig(Nc_eta=9),
    }
    devs = {}
    for name, cfg in variants.items():
        soc = run(cfg)
        n = min(len(base), len(soc))
        devs[name] = float(np.max(np.abs(base[:n] - soc[:n])))
    ok = all(d <= 0.02 for d in devs.values())
    detail = ", ".join(f"{k}: {v:.4f}" for k, v in devs.items())
    _report(7, ok, f"max SoC deviation per variant (tol 0.02): {detail}")


def test_criterion_08_ekf_output_feedback(params, dmodel, table, cfg,
                                          problems, solutions, basic_trace):
    trace = run_closed_loop(_setup(params, dmodel, table, cfg, problems,
                                   solutions, feedback="ekf", noise=True,
                                   seed=42))
    eta_viol = max(r.eta - cfg.gamma2 for r in trace.rows)
    a, b = basic_trace.soc_series(), trace.soc_series()
    n = min(len(a), len(b))
    dev = float(np.max(np.abs(a[:n] - b[:n])))
    ok = trace.completed and eta_viol <= 0.005 and dev <= 0.02
    _report(8, ok,
            f"completed={trace.completed} eta_violation={eta_viol:.4f} "
            f"(tol 0.005) soc_dev={dev:.4f} (tol 0.02)")


def test_criterion_09_timing(params, dmodel, table, cfg, problems,
                             solutions):
    def mean_step_ns(controller):
        means = []
        for _ in range(20):
            trace = run_closed_loop(_setup(params, dmodel, table, cfg,
                                           problems, solutions,
                                           controller=controller))
            means.append(np.mean([r.solver_time_ns for r in trace.rows]))
        return float(np.mean(means))

    empc_ns = mean_step_ns("empc")
    nmpc_ns = mean_step_ns("nmpc")
    ratio = nmpc_ns / empc_ns
    ok = ratio >= 10.0 and empc_ns < 1e6
    _report(9, ok,
            f"empc {empc_ns / 1e3:.1f} us/step (tol < 1000 us), "
            f"nmpc/empc ratio {ratio:.1f} (tol >= 10), 20-run averages")


def test_criterion_10_rounded_tables(params, dmodel, table, cfg, problems,
                                     solutions, basic_trace):
    rounded_sols = [rounded(s, 3) for s in solutions]
    trace = run_closed_loop(_setup(params, dmodel, table, cfg, problems,
                                   rounded_sols))
    diff = abs(trace.rows[-1].SoC - basic_trace.rows[-1].SoC)
    ok = trace.completed and diff <= 0.005
    _report(10, ok,
            f"completed={trace.completed} fallbacks={trace.fallback_count} "
            f"final SoC diff = {diff:.2e} (tol 0.005)")


def test_criterion_11_property_suites(params, dmodel, solutions):
    details = []
    ok = True

    # coulomb conservation at 1e-9 relative
    rng = np.random.default_rng(31)
    x = mdl.NdcState(0.2, 0.2, 0.0)
    total, soc0 = 0.0, mdl.soc(params, 0.2, 0.2)
    for _ in range(300):
        total += x.I * dmodel.dt
        x, _ = mdl.step_nonlinear(params, dmodel, x,
                                  rng.uniform(-0.2, 0.2))
    err = abs(params.capacity * (mdl.soc(params, x.Vb, x.Vs) - soc0)
              - total) / max(abs(total), 1.0)
    ok &= err <= 1e-9
    details.append(f"coulomb rel err {err:.1e}")

    # Vs >= Vb while charging from equilibrium
    x = mdl.NdcState(0.25, 0.25, 2.0)
    dom = True
    for _ in range(100):
        x, _ = mdl.step_nonlinear(params, dmodel, x, 0.0)
        dom &= x.Vs >= x.Vb - 1e-12
    ok &= dom
    details.append(f"Vs>=Vb {dom}")

    # PWA continuity across facets: laws of regions sharing a facet point
    # agree there
    cont = 0.0
    for sol in solutions[:3]:
        for r in sol.regions:
            for i in range(r.E.shape[0]):
                center = _facet_center(r.E, r.e, i)
                if center is None:
                    continue
                vals = [reg.K @ center + reg.g for reg in sol.regions
                        if np.all(reg.E @ center <= reg.e + 1e-7)]
                for v in vals[1:]:
                    cont = max(cont,
                               float(np.max(np.abs(v - vals[0]))))
    ok &= cont <= 1e-6
    details.append(f"PWA facet jump {cont:.1e}")

    # KKT residuals on random dense QPs
    kkt = 0.0
    for _ in range(30):
        n, m = 3, 8
        M = rng.standard_normal((n, n))
        H = M @ M.T + n * np.eye(n)
        f = rng.standard_normal(n)
        G = rng.standard_normal((m, n))
        w = G @ rng.standard_normal(n) + rng.uniform(0.0, 1.0, m)
        s = solve_qp(DenseQp(H, f, G, w))
        lam = np.zeros(m)
        lam[list(s.active_set)] = s.multipliers
        kkt = max(kkt,
                  float(np.linalg.norm(H @ s.z_star + f + G.T @ lam)),
                  float(np.max(G @ s.z_star - w)))
    ok &= kkt <= 1e-8
    details.append(f"KKT residual {kkt:.1e}")

    # QP objective vs brute-force grid on random 2-D instances
    grid = np.linspace(-3.0, 3.0, 1201)
    ZX, ZY = np.meshgrid(grid, grid)
    pts = np.column_stack([ZX.ravel(), ZY.ravel()])
    gap = 0.0
    for _ in range(10):
        M = rng.standard_normal((2, 2))
        H = M @ M.T + 2 * np.eye(2)
        f = rng.standard_normal(2)
        G = rng.standard_normal((5, 2))
        w = rng.uniform(0.2, 1.5, 5)  # origin feasible
        s = solve_qp(DenseQp(H, f, G, w))
        feas = np.all(pts @ G.T <= w + 1e-12, axis=1)
        vals = (0.5 * np.einsum("ij,jk,ik->i", pts, H, pts) + pts @ f)
        best = float(vals[feas].min())
        mine = float(0.5 * s.z_star @ H @ s.z_star + f @ s.z_star)
        assert mine <= best + 1e-9
        gap = max(gap, best - mine)
    ok &= gap <= 2e-3
    details.append(f"grid-vs-QP objective gap {gap:.1e}")

    _report(11, bool(ok), "; ".join(details))
