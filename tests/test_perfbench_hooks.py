"""The benchmark's hook points: every package attribute that
``perfbench/layers.py`` wraps must exist and be callable, so a cleanup in
``src/`` cannot silently break the traced benchmark run."""

import inspect
import pathlib

from empcharge import regions

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


def test_explore_accepts_seed():
    inspect.signature(regions.explore).bind(None, theta_box=None, seed=0)
