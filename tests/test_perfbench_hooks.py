"""The benchmark's hook points: every package attribute that
``perfbench/layers.py`` wraps must exist and be callable, and every name
``perfbench/workloads.py`` calls untraced must keep the shape it uses, so a
cleanup in ``src/`` cannot silently break the benchmark run."""

import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import pathlib
from collections import Counter

import numpy as np
import scipy.optimize._linprog as scipy_linprog

from empcharge import cli, control, qp, regions, segments
from empcharge.model import NdcState, discretize

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


class _CheckingTracer:
    """Stands in for the tracer: checks each target, wraps nothing."""

    def __init__(self):
        self.targets = []

    def patch(self, module, attr, name, note=None):
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"
        self.targets.append((module.__name__, attr))


def test_layers_patch_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    tr = _CheckingTracer()
    layers.patch_all(tr)
    assert ("empcharge.qp", "chebyshev_center") in tr.targets
    assert ("empcharge.regions", "remove_redundant") in tr.targets


def test_explore_lps_go_through_hooked_linprog(monkeypatch, problems):
    """Every HiGHS call ``explore`` makes goes through ``qp.linprog``, the
    name ``layers.py`` wraps, so the traced run counts all of them: one
    stacked Chebyshev call per default segment, redundancy removal making
    none."""
    calls = Counter()

    def counting(real, key):
        def wrapper(*args, **kw):
            calls[key] += 1
            return real(*args, **kw)
        return wrapper

    monkeypatch.setattr(scipy_linprog, "_linprog_highs", counting(
        scipy_linprog._linprog_highs, "highs"))
    monkeypatch.setattr(qp, "linprog", counting(qp.linprog, "hooked"))
    for problem in problems:
        calls.clear()
        regions.explore(problem)
        assert calls["highs"] == calls["hooked"]
        assert calls["hooked"] == 1


def test_explore_accepts_seed():
    inspect.signature(regions.explore).bind(None, theta_box=None, seed=0)


def test_controller_steps_call_hooked_names(monkeypatch, params, dmodel,
                                            table, cfg, problems, solutions):
    """Each controller step reaches the QP, point location, condensing and
    segment selection through the names ``layers.py`` wraps in
    ``control``, once each: a call routed around them would drop out of
    the traced benchmark's spans."""
    calls = Counter()
    for attr in ("solve_qp", "locate", "build", "select_segment"):
        def counting(*args, _real=getattr(control, attr), _attr=attr, **kw):
            calls[_attr] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(control, attr, counting)

    x, r, u_prev = NdcState(0.3, 0.32, 2.0), 0.9, 0.0
    steps = (
        (lambda: control.empc_step(solutions, table, dmodel, u_prev, x, r),
         {"locate", "select_segment"}),
        (lambda: control.online_mpc_step(problems, table, dmodel, u_prev,
                                         x, r),
         {"solve_qp", "select_segment"}),
        (lambda: control.nmpc_step(params, dmodel, table, cfg, u_prev, x, r),
         {"build", "solve_qp", "select_segment"}),
    )
    for step, names in steps:
        calls.clear()
        step()
        assert calls == dict.fromkeys(names, 1)


def test_synthesis_calls_hooked_names(monkeypatch, tmp_path):
    """Synthesis reaches the explorer, the coverage check and the export
    through the names ``layers.py`` wraps in ``cli``: ``synthesize`` on one
    segment explores and checks it once and writes it twice, and the eMPC
    tables a scenario synthesizes in process are explored and checked
    once per segment.  Tables a scenario reads from ``tables_dir`` are
    checked once per segment and explored never.  A helper that reached
    them by other names would drop them from the traced ``synth_*``
    spans."""
    calls = Counter()
    for attr in ("explore", "coverage_check", "export_table"):
        def counting(*args, _real=getattr(cli, attr), _attr=attr, **kw):
            calls[_attr] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(cli, attr, counting)

    configs = PERFBENCH.parent / "configs"
    syn = json.loads((configs / "synthesis_default.json").read_text())
    config = tmp_path / "one.json"
    config.write_text(json.dumps(dict(
        syn, breakpoints=[list(segments.default_breakpoints()[0])])))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synthesize", "--config", str(config),
                         "--out-dir", str(tmp_path / "out")]) == 0
    assert calls == {"explore": 1, "coverage_check": 1, "export_table": 2}

    calls.clear()
    doc = json.loads((configs / "basic_case.json").read_text())
    cli._scenario_setup(doc, argparse.Namespace(
        controller="empc", feedback=None, seed=None))
    n = len(segments.default_breakpoints())  # basic_case sets none
    assert calls == {"explore": n, "coverage_check": n}

    stored = tmp_path / "stored"
    config.write_text(json.dumps(doc["synthesis"]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synthesize", "--config", str(config),
                         "--out-dir", str(stored)]) == 0
    calls.clear()
    cli._scenario_setup(dict(doc, tables_dir=str(stored)), argparse.Namespace(
        controller="empc", feedback=None, seed=None))
    assert calls == {"coverage_check": n}


def test_workload_names_keep_their_shape(tmp_path, solutions):
    """The calls ``workloads.py`` makes outside the traced names, in the
    shapes it makes them: the CLI's synthesis and scenario set-up, the box
    halfspaces and the Chebyshev center of its warm-up solve, a table read
    back from disk, and the ``RunSetup`` fields it replaces, down to the
    online-QP charge its warm-up makes from the eMPC one."""
    configs = PERFBENCH.parent / "configs"
    syn = json.loads((configs / "synthesis_default.json").read_text())
    params, model, _, _, problems = cli._synthesis_objects(syn)
    assert discretize(params, model.dt).dt == model.dt
    box = cli._theta_box(syn)
    assert box.shape == (5, 2)
    assert [list(b) for b in segments.default_breakpoints()]

    prob, theta = problems[0], box.mean(axis=1)
    sol = qp.solve_qp(qp.DenseQp(prob.Sigma, prob.F @ theta, prob.G,
                                 prob.S @ theta + prob.W))
    assert sol.status == "optimal"
    center, radius = qp.chebyshev_center(*regions.box_halfspaces(box))
    assert radius > 0
    assert np.all((box[:, 0] < center) & (center < box[:, 1]))

    path = tmp_path / "table.json"
    regions.export_table(solutions[0], path)
    table0 = regions.import_table(str(path))
    assert table0.n_regions == solutions[0].n_regions
    assert table0.theta_box.shape == (5, 2) and table0.stored_reals > 0
    assert (table0.segment_index, table0.locate_tol) == (
        solutions[0].segment_index, solutions[0].locate_tol)
    r = table0.regions[0]
    assert (r.E.ndim, r.e.ndim, r.K.ndim, r.g.ndim) == (2, 1, 2, 1)
    assert isinstance(r.active_set, tuple)

    doc = json.loads((configs / "basic_case_qp.json").read_text())
    run = cli._scenario_setup(doc, argparse.Namespace(
        controller="qp", feedback=None, seed=None))
    run = dataclasses.replace(run, controller="empc", solutions=solutions)
    run = dataclasses.replace(run, seed=7)
    assert (run.controller, run.seed) == ("empc", 7)
    # Loop.warmup checks the eMPC charge against this online-QP charge,
    # whose problems the RunSetup condenses from its own cfg
    run = dataclasses.replace(run, controller="qp")
    want = cli._synthesis_objects(doc["synthesis"])[-1]
    assert [(p.segment_index, p.G.tobytes(), p.S.tobytes(), p.W.tobytes())
            for p in run.problems] == [
        (p.segment_index, p.G.tobytes(), p.S.tobytes(), p.W.tobytes())
        for p in want]
    trace = control.run_closed_loop(run)
    assert trace.completed and trace.fallback_count == 0


def test_nmpc_step_reports_iterations(params, dmodel, table, cfg):
    """``layers.py`` notes each traced ``nmpc_step`` with its result's
    ``iterations``."""
    res = control.nmpc_step(params, dmodel, table, cfg, 0.0,
                            NdcState(0.3, 0.32, 2.0), 0.9)
    assert res.iterations == 1
