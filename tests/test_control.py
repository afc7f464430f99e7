import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from empcharge import control, qp
from empcharge import model as mdl
from empcharge.control import (EkfState, RunSetup, ekf_step, empc_step,
                               nmpc_step, online_mpc_step, run_closed_loop)
from empcharge.model import NdcState
from empcharge.mpqp import I_MAX, I_MIN, MpcConfig, assemble_theta, build
from empcharge.regions import DEFAULT_THETA_BOX, locate
from empcharge.segments import relinearize, select_segment


def _setup(params, dmodel, table, cfg, problems, solutions, **kw):
    return RunSetup(params=params, model=dmodel, table=table, cfg=cfg,
                    solutions=solutions, **kw)


def test_basic_run_completes(params, dmodel, table, cfg, problems,
                             solutions):
    trace = run_closed_loop(_setup(params, dmodel, table, cfg, problems,
                                   solutions))
    assert trace.completed
    assert trace.charging_steps <= 150
    assert trace.fallback_count == 0
    assert trace.rows[-1].SoC >= 0.9 - 0.005 - 1e-9


def test_soc_monotone_and_vs_dominates(params, dmodel, table, cfg, problems,
                                       solutions):
    trace = run_closed_loop(_setup(params, dmodel, table, cfg, problems,
                                   solutions))
    soc = trace.soc_series()
    assert np.all(np.diff(soc) >= -1e-12)
    for r in trace.rows:
        assert r.Vs >= r.Vb - 1e-12
        assert r.I >= -1e-12


def test_empc_equals_online_qp(params, dmodel, table, cfg, problems,
                               solutions):
    a = run_closed_loop(_setup(params, dmodel, table, cfg, problems,
                               solutions, controller="empc"))
    b = run_closed_loop(_setup(params, dmodel, table, cfg, problems,
                               solutions, controller="qp"))
    assert a.charging_steps == b.charging_steps
    for ra, rb in zip(a.rows, b.rows):
        assert ra.I == pytest.approx(rb.I, abs=1e-9)
        assert ra.SoC == pytest.approx(rb.SoC, abs=1e-9)


def test_single_step_agreement(params, dmodel, table, cfg, problems,
                               solutions):
    x = NdcState(0.3, 0.32, 2.0)
    r = 0.9
    ra = empc_step(solutions, table, dmodel, 0.5, x, r)
    rb = online_mpc_step(problems, table, dmodel, 0.5, x, r)
    assert ra.I_next == pytest.approx(rb.I_next, abs=1e-8)
    assert ra.segment == rb.segment
    assert not ra.fallback and not rb.fallback


def test_online_qp_warm_start_keeps_the_charge(params, dmodel, table, cfg,
                                               monkeypatch):
    """The online-QP charge of basic_case_qp and the NMPC charge of
    nmpc_case, each QP warm-started from the last step's active set, are
    their cold charges within 1e-12 in every trace column, and make fewer
    phase-1 LPs: 3 where the cold charges make 14 and 6.  Each trace
    counts its own LPs."""
    made = []
    monkeypatch.setattr(qp, "linprog",
                        lambda *a, _real=qp.linprog, **k:
                        made.append(1) or _real(*a, **k))

    def charge(controller):
        made.clear()
        trace = run_closed_loop(RunSetup(params=params, model=dmodel,
                                         table=table, cfg=cfg,
                                         controller=controller))
        assert trace.phase1_lps == len(made)
        return trace, len(made)

    cases = (("qp", 67, 14, 3), ("nmpc", 65, 6, 3))
    warm = {c: charge(c) for c, *_ in cases}
    monkeypatch.setattr(control, "solve_qp",
                        lambda q, *guess, _real=control.solve_qp: _real(q))
    for controller, steps, cold_want, warm_want in cases:
        (w_trace, warm_lps), (c_trace, cold_lps) = (warm[controller],
                                                    charge(controller))
        assert (cold_lps, warm_lps) == (cold_want, warm_want)
        assert w_trace.completed and c_trace.completed
        assert w_trace.charging_steps == c_trace.charging_steps == steps
        for w, c in zip(w_trace.rows, c_trace.rows):
            assert (w.segment, w.fallback_flag) == (c.segment,
                                                    c.fallback_flag)
            for f in fields(w):
                if f.name != "solver_time_ns":
                    assert abs(getattr(w, f.name)
                               - getattr(c, f.name)) <= 1e-12


def _reference_locate(solution, theta):
    """locate with numpy's reduction over the regions' largest
    violations, a tie going to the smaller first move."""
    worst = (solution._E @ theta - solution._e).max(axis=1)
    best = worst.min(initial=np.inf)
    if not best <= solution.locate_tol:
        return None
    ties = np.flatnonzero(worst == best)
    if len(ties) == 1:
        return int(ties[0])
    regs = solution.regions
    return int(min(ties, key=lambda k: regs[k].K[0] @ theta + regs[k].g[0]))


def _reference_charge(s):
    """run_closed_loop written plainly, for one RunSetup s: one rng.normal
    call per draw, as each is needed; point location reduced in numpy
    (_reference_locate); the predicted Vs from DiscreteModel.step on the
    state; the EKF's gain outer product by np.outer.  Returns the rows as
    tuples of TraceRow's fields less solver_time_ns, and completed."""
    p, model, table = s.params, s.model, s.table
    rng = np.random.default_rng(s.seed)
    meas_sd, process_sd = np.sqrt(control.MEAS_VAR), np.sqrt(
        control.PROCESS_VAR)
    x = NdcState(s.soc_start, s.soc_start, 0.0)
    x_hat, P = x.as_array(), np.eye(3) * 1e-4
    u_prev, active, rows, completed = 0.0, (), [], False
    for k in range(s.step_budget):
        y = mdl.output_vector(p, x, table.gamma1)
        x_ctrl = x
        if s.feedback == "ekf":
            V_meas = y.V
            if s.noise:
                V_meas += rng.normal(0.0, meas_sd)
            A = model.A_aug
            x_pred = model.step(x_hat, u_prev)
            P_pred = A @ P @ A.T + control.EKF_Q
            pred = NdcState(*x_pred.tolist())
            H = np.array([0.0,
                          mdl.ocv_slope(p, pred.Vs)
                          + float(mdl.r0_slope(p, pred.Vs)) * pred.I,
                          float(mdl.r0(p, pred.Vs))])
            K = P_pred @ H / (float(H @ P_pred @ H) + control.EKF_R)
            x_hat = x_pred + K * (V_meas - mdl.terminal_voltage(p, pred))
            P = (np.eye(3) - np.outer(K, H)) @ P_pred
            P = 0.5 * (P + P.T)
            x_ctrl = NdcState(*x_hat.tolist())

        theta = assemble_theta(x_ctrl, s.soc_target, u_prev)
        vs_next = float(model.step(x_ctrl.as_array(), 0.0)[1])
        si = select_segment(table, vs_next)
        region, du0 = None, None
        if s.controller == "empc":
            region = _reference_locate(s.solutions[si], theta)
            if region is not None:
                law = s.solutions[si].regions[region]
                du0 = float(law.K[0] @ theta + law.g[0])
        else:
            if s.controller == "qp":
                sol = qp.solve_qp(s.problems[si].qp(theta), active)
            else:
                seg = relinearize(p, table.segments[si],
                                  min(max(vs_next, 0.0), 1.0))
                sol = qp.solve_qp(control.build(model, seg, s.cfg).qp(theta),
                                  active)
            active = sol.active_set
            if sol.status == "optimal":
                du0 = float(sol.z_star[0])
        I_next = min(max(u_prev + (0.0 if du0 is None else du0) + x_ctrl.I,
                         I_MIN), I_MAX)
        u_prev = float(I_next - x_ctrl.I)
        rows.append((k, k * model.dt, float(x.Vb), y.Vs, y.I, y.V, y.soc,
                     y.eta, si, -1 if region is None else region, u_prev,
                     int(du0 is None)))

        if (mdl.soc(p, x_ctrl.Vb, x_ctrl.Vs)
                >= s.soc_target - control.COMPLETION_SLACK):
            completed = True
            if s.stop_at_target:
                break
        xv = model.step(x.as_array(), I_next - x.I)
        if s.noise:
            xv = xv + rng.normal(0.0, process_sd, 3)
        x = NdcState(*xv.tolist())
    return rows, completed


@pytest.mark.parametrize("controller, kw", [
    ("empc", {}), ("qp", {}), ("nmpc", {})] + [
    ("empc", dict(feedback="ekf", noise=True, seed=seed))
    for seed in range(5)])
def test_charge_equals_the_plain_reference_loop(
        params, dmodel, table, cfg, problems, solutions, controller, kw):
    """The basic eMPC, online-QP and NMPC charges and noisy EKF charges
    (ekf_case's settings) equal _reference_charge in every trace field
    but the step time, exactly: the closed loop's shortcuts keep every
    bit."""
    setup = _setup(params, dmodel, table, cfg, problems, solutions,
                   controller=controller, **kw)
    trace = run_closed_loop(setup)
    got = [tuple(getattr(row, f.name) for f in fields(row)
                 if f.name != "solver_time_ns") for row in trace.rows]
    want, completed = _reference_charge(setup)
    assert (got, trace.completed) == (want, completed)
    assert len(got) > 20


def test_nmpc_step_converges(params, dmodel, table, cfg):
    res = nmpc_step(params, dmodel, table, cfg, 0.0,
                    NdcState(0.2, 0.2, 0.0), 0.9)
    assert not res.fallback
    assert res.iterations == 1
    assert 0.0 <= res.I_next <= 3.0


def test_nmpc_charge_solves_one_qp_per_step(params, dmodel, table, cfg,
                                            monkeypatch):
    """Each NMPC step condenses one linearization and solves one QP, and
    the charge keeps the plant's terminal voltage at or below 4.2 V."""
    calls, per_step = Counter(), []
    for attr in ("build", "solve_qp"):
        def counting(*args, _real=getattr(control, attr), _attr=attr):
            calls[_attr] += 1
            return _real(*args)
        monkeypatch.setattr(control, attr, counting)

    def step(*args, _real=control.nmpc_step):
        calls.clear()
        res = _real(*args)
        per_step.append(dict(calls))
        return res

    monkeypatch.setattr(control, "nmpc_step", step)
    trace = run_closed_loop(RunSetup(params=params, model=dmodel,
                                     table=table, cfg=cfg,
                                     controller="nmpc"))
    assert trace.completed
    assert len(per_step) == trace.charging_steps
    assert all(c == {"build": 1, "solve_qp": 1} for c in per_step)
    assert max(r.V for r in trace.rows) <= 4.2 + 1e-9


def test_ekf_exact_init_tracks(params, dmodel):
    # no noise and exact initialization: the filter must follow the plant
    # to machine precision
    x = NdcState(0.25, 0.25, 0.0)
    ekf = EkfState(x.as_array())
    du = 0.8
    for _ in range(40):
        x, y = mdl.step_nonlinear(params, dmodel, x, du)
        ekf = ekf_step(params, dmodel, ekf, du, y.V)
        du = 0.0
        assert np.allclose(ekf.x_hat, x.as_array(), atol=1e-9)


def test_ekf_recovers_from_vb_offset(params, dmodel):
    # +0.05 bulk-voltage mis-initialization shrinks below 0.005 within 30
    # steps of voltage-only measurement
    x = NdcState(0.30, 0.30, 0.0)
    x0_hat = x.as_array() + np.array([0.05, 0.0, 0.0])
    ekf = EkfState(x0_hat)
    du = 1.0
    for _ in range(30):
        x, y = mdl.step_nonlinear(params, dmodel, x, du)
        ekf = ekf_step(params, dmodel, ekf, du, y.V)
        du = 0.0
    assert abs(ekf.x_hat[0] - x.Vb) < 0.005


def test_noise_run_deterministic(params, dmodel, table, cfg, problems,
                                 solutions, tmp_path):
    kw = dict(feedback="ekf", noise=True, seed=42)
    a = run_closed_loop(_setup(params, dmodel, table, cfg, problems,
                               solutions, **kw))
    b = run_closed_loop(_setup(params, dmodel, table, cfg, problems,
                               solutions, **kw))
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.to_csv(pa)
    b.to_csv(pb)

    def strip_timing(path):
        # drop the wall-clock solver_time_ns column; everything else must
        # be byte-identical across reruns with the same seed
        out = []
        for line in path.read_text().splitlines():
            cells = line.split(",")
            del cells[11]
            out.append(",".join(cells))
        return "\n".join(out)

    assert strip_timing(pa) == strip_timing(pb)


def test_noisy_charge_memory_does_not_grow_with_the_budget(
        params, dmodel, table, cfg, solutions):
    """A noisy charge draws its noise a block at a time: with a budget of
    10**6 steps it stops at its target, allocates well under the 32 MB a
    draw for every step would take, and is the charge of a 150-step
    budget in every field but the step time."""
    def charge(step_budget):
        return run_closed_loop(RunSetup(
            params=params, model=dmodel, table=table, cfg=cfg,
            solutions=solutions, feedback="ekf", noise=True, seed=42,
            step_budget=step_budget))

    want = charge(150)
    tracemalloc.start()
    try:
        got = charge(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert got.completed and want.completed
    assert [replace(r, solver_time_ns=0) for r in got.rows] == [
        replace(r, solver_time_ns=0) for r in want.rows]


def test_qp_run_setup_condenses_its_own_problems(params, dmodel, table):
    """The online-QP controller's problems are mpqp.build's, from the
    RunSetup's own cfg, bit for bit; another controller condenses none."""
    for cfg in (MpcConfig(), MpcConfig(N=50), MpcConfig(Nu=5, Nc_eta=5)):
        run = RunSetup(params=params, model=dmodel, table=table, cfg=cfg,
                       controller="qp")
        want = [build(dmodel, seg, cfg) for seg in table.segments]
        assert len(run.problems) == len(want)
        for got, ref in zip(run.problems, want):
            assert got.segment_index == ref.segment_index
            assert got.labels == ref.labels
            for name in ("Sigma", "F", "G", "S", "W"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert RunSetup(params=params, model=dmodel, table=table, cfg=cfg,
                    controller="nmpc").problems is None


def test_trace_csv_format(params, dmodel, table, cfg, problems, solutions,
                          tmp_path):
    trace = run_closed_loop(_setup(params, dmodel, table, cfg, problems,
                                   solutions))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("step,time_s,Vb,Vs,I,V,SoC,eta,segment,region,du,"
                        "solver_time_ns,fallback_flag")
    assert len(lines) == len(trace.rows) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) == pytest.approx(0.2)
    # every cell of every row is a plain number that round-trips, without
    # repr artifacts such as np.float64(...)
    for line, row in zip(lines[1:], trace.rows):
        values = [float(c) for c in line.split(",")]
        assert len(values) == 13
        assert values[2:5] == [row.Vb, row.Vs, row.I]
        assert values[10] == row.du


def test_run_setup_validation(params, dmodel, table, cfg, problems,
                              solutions):
    with pytest.raises(ValueError):
        RunSetup(params=params, model=dmodel, table=table, cfg=cfg,
                 controller="empc")
    with pytest.raises(ValueError):
        RunSetup(params=params, model=dmodel, table=table, cfg=cfg,
                 controller="bogus")
    with pytest.raises(ValueError, match="vs_hi"):  # past the table's 0.90
        RunSetup(params=params, model=dmodel, table=table, cfg=cfg,
                 controller="qp", soc_target=0.93)
    # a step indexes the per-segment lists by the segment's position, so a
    # list that is not the table's segments in order is refused at once
    for bad in (solutions[::-1], solutions[:1]):
        with pytest.raises(ValueError, match="solutions for segments"):
            _setup(params, dmodel, table, cfg, problems, bad)
    # a law with no region in a segment would charge on fallbacks alone
    empty = list(solutions)
    empty[2] = replace(empty[2], regions=())
    with pytest.raises(ValueError, match="segment 3: no critical region in "
                                         "the theta box"):
        _setup(params, dmodel, table, cfg, problems, empty)
    # so would a theta box without the first theta, [0.2, 0.2, 0, 0.9, 0],
    # or without a current the law may command
    for rows, span in (([3], [0.2, 0.5]), ([0, 1], [0.5, 1.0]),
                       ([2], [0.0, 2.0])):
        box = DEFAULT_THETA_BOX.copy()
        box[rows] = span
        short = list(solutions)
        short[1] = replace(short[1], theta_box=box)
        with pytest.raises(ValueError, match="segment 2: its theta box"):
            _setup(params, dmodel, table, cfg, problems, short)


@pytest.mark.parametrize("step_budget", [0, -3])
def test_run_setup_rejects_no_steps(params, dmodel, table, cfg, step_budget):
    with pytest.raises(ValueError, match="step_budget"):
        RunSetup(params=params, model=dmodel, table=table, cfg=cfg,
                 controller="qp", step_budget=step_budget)


@pytest.mark.parametrize("total", [
    I_MIN - 1.0, I_MIN - 1e-12, I_MIN, I_MIN + 1e-12, 1.5,
    I_MAX - 1e-12, I_MAX, I_MAX + 1e-12, I_MAX + 1.0])
def test_current_equals_clip(total):
    """_result saturates the current as np.clip does, at, inside and
    beyond both current bounds."""
    for I, u_prev in [(0.0, 0.0), (1.2, -0.4), (2.9, 0.3)]:
        x = NdcState(Vb=0.5, Vs=0.5, I=I)
        du0 = total - I - u_prev
        assert control._result(u_prev, x, 0, du0, None).I_next == float(
            np.clip(u_prev + du0 + x.I, I_MIN, I_MAX))


def test_budget_exhaustion(params, dmodel, table, cfg, problems, solutions):
    trace = run_closed_loop(_setup(params, dmodel, table, cfg, problems,
                                   solutions, step_budget=5))
    assert not trace.completed
    assert trace.charging_steps == 5


def test_step_applies_the_law_of_next_steps_segment(params, dmodel, table,
                                                    cfg, problems, solutions):
    """Vs just below the 0.6 breakpoint, Vb < Vs and a large current: Vs
    one step on lies in the next segment, and each controller applies that
    segment's law.  (At 3 A every QP is infeasible here, through the
    eta<= @k=1 row, so the step would be a fallback.)"""
    x, r, u_prev = NdcState(Vb=0.594, Vs=0.599, I=2.5), 0.9, 0.0
    here = select_segment(table, x.Vs)
    nxt = select_segment(table, control._predicted_vs(
        dmodel, assemble_theta(x, r, u_prev)))
    assert nxt == here + 1
    steps = (empc_step(solutions, table, dmodel, u_prev, x, r),
             online_mpc_step(problems, table, dmodel, u_prev, x, r),
             nmpc_step(params, dmodel, table, cfg, u_prev, x, r))
    for res in steps:
        assert res.segment == nxt
        assert not res.fallback
    theta = assemble_theta(x, r, u_prev)
    region = locate(solutions[nxt], theta)
    assert region is not None and steps[0].region == region
    law = solutions[nxt].regions[region]
    assert steps[0].I_next == control._result(
        u_prev, x, nxt, float(law.K[0] @ theta + law.g[0]), region).I_next


def _guard(move, table, model, u_prev, x, r):
    """The segment-switch guard this package once ran, as a reference: the
    law of the segment owning Vs and that of the segment owning Vs one
    step on, the smaller current kept, the first on a tie."""
    theta = assemble_theta(x, r, u_prev)
    si = select_segment(table, x.Vs)
    res = control._result(u_prev, x, si, *move(si, theta))
    sj = select_segment(table, control._predicted_vs(model, theta))
    if sj != si:
        res = min(res, control._result(u_prev, x, sj, *move(sj, theta)),
                  key=lambda s: s.I_next)
    return res


def _guarded_empc(solutions, table, model, u_prev, x, r):
    def move(si, theta):
        idx = locate(solutions[si], theta)
        if idx is None:
            return None, None
        reg = solutions[si].regions[idx]
        return float(reg.K[0] @ theta + reg.g[0]), idx

    return _guard(move, table, model, u_prev, x, r)


def _guarded_qp(problems, table, model, u_prev, x, r, guess=()):
    def move(si, theta):
        return (qp.solve_qp(problems[si].qp(theta), guess),)

    return _guard(move, table, model, u_prev, x, r)


@pytest.mark.parametrize("controller, kw", [
    ("empc", {}), ("qp", {})] + [
    ("empc", dict(feedback="ekf", noise=True, seed=seed))
    for seed in range(20)])
def test_one_segment_rule_keeps_the_guards_currents(
        params, dmodel, table, cfg, problems, solutions, monkeypatch,
        controller, kw):
    """Applying the law of the segment owning Vs one step on gives the
    currents of the old switch guard, to the bit, on the basic eMPC and QP
    charges and on noisy EKF charges."""
    setup = _setup(params, dmodel, table, cfg, problems, solutions,
                   controller=controller, **kw)
    new = run_closed_loop(setup)
    monkeypatch.setattr(control, "empc_step", _guarded_empc)
    monkeypatch.setattr(control, "online_mpc_step", _guarded_qp)
    ref = run_closed_loop(setup)
    assert [row.I for row in new.rows] == [row.I for row in ref.rows]
    assert new.fallback_count == ref.fallback_count


def test_one_segment_rule_off_trajectory_keeps_voltage(params, dmodel, table,
                                                       solutions):
    """Over uniform theta in the default box, wherever the one-segment
    eMPC step and the old guard apply different currents, the one-segment
    move keeps the true terminal voltage one step on at or below 4.2 V."""
    rng = np.random.default_rng(20)
    box = DEFAULT_THETA_BOX
    differ = 0
    for theta in rng.uniform(box[:, 0], box[:, 1], (20000, len(box))):
        x, r, u_prev = NdcState(*theta[:3].tolist()), theta[3], theta[4]
        new = empc_step(solutions, table, dmodel, u_prev, x, r)
        ref = _guarded_empc(solutions, table, dmodel, u_prev, x, r)
        if (new.I_next, new.fallback) == (ref.I_next, ref.fallback):
            continue
        differ += 1
        _, y = mdl.step_nonlinear(params, dmodel, x, new.du_applied,
                                  table.gamma1)
        assert y.V <= 4.2, (theta, new, ref)
    assert differ > 0
