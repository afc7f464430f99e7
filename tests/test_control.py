from collections import Counter

import numpy as np
import pytest

from empcharge import control
from empcharge import model as mdl
from empcharge.control import (RunSetup, default_ekf, ekf_step, empc_step,
                               nmpc_step, online_mpc_step, run_closed_loop)
from empcharge.model import NdcState
from empcharge.mpqp import I_MAX, I_MIN


def _setup(params, dmodel, table, cfg, problems, solutions, **kw):
    return RunSetup(params=params, model=dmodel, table=table, cfg=cfg,
                    problems=problems, solutions=solutions, **kw)


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
    ekf = default_ekf(x.as_array())
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
    ekf = default_ekf(x0_hat)
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


def test_run_setup_validation(params, dmodel, table, cfg, problems):
    with pytest.raises(ValueError):
        RunSetup(params=params, model=dmodel, table=table, cfg=cfg,
                 controller="empc")
    with pytest.raises(ValueError):
        RunSetup(params=params, model=dmodel, table=table, cfg=cfg,
                 controller="qp")
    with pytest.raises(ValueError):
        RunSetup(params=params, model=dmodel, table=table, cfg=cfg,
                 controller="bogus", problems=problems)


@pytest.mark.parametrize("step_budget", [0, -3])
def test_run_setup_rejects_no_steps(params, dmodel, table, cfg, problems,
                                    step_budget):
    with pytest.raises(ValueError, match="step_budget"):
        RunSetup(params=params, model=dmodel, table=table, cfg=cfg,
                 controller="qp", problems=problems, step_budget=step_budget)


@pytest.mark.parametrize("total", [
    I_MIN - 1.0, I_MIN - 1e-12, I_MIN, I_MIN + 1e-12, 1.5,
    I_MAX - 1e-12, I_MAX, I_MAX + 1e-12, I_MAX + 1.0])
def test_current_equals_clip(total):
    """_current saturates as np.clip does, at, inside and beyond both
    current bounds."""
    for I, u_prev in [(0.0, 0.0), (1.2, -0.4), (2.9, 0.3)]:
        x = NdcState(Vb=0.5, Vs=0.5, I=I)
        du0 = total - I - u_prev
        assert control._current(u_prev, x, du0) == float(
            np.clip(u_prev + du0 + x.I, I_MIN, I_MAX))


def test_budget_exhaustion(params, dmodel, table, cfg, problems, solutions):
    trace = run_closed_loop(_setup(params, dmodel, table, cfg, problems,
                                   solutions, step_budget=5))
    assert not trace.completed
    assert trace.charging_steps == 5
