"""The benchmark's hook points: every package attribute that
``perfbench/layers.py`` wraps must exist and be callable, so a cleanup in
``src/`` cannot silently break the traced benchmark run."""

import inspect
import pathlib
from collections import Counter

import scipy.optimize._linprog as scipy_linprog

from empcharge import control, qp, regions
from empcharge.model import NdcState

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
    ``control``; a call routed around them would drop out of the traced
    benchmark's spans."""
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
        assert set(calls) == names
