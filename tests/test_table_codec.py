"""Property tests of the region-table codec: random finite tables survive
both encodings bit for bit, and any damage to a file is a ValueError."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from empcharge.regions import (CriticalRegion, ExplicitSolution,
                               export_table, import_table)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
SETTINGS = settings(max_examples=50, deadline=None)


@st.composite
def tables(draw, max_regions=4, max_rows=12):
    Nu = draw(st.integers(1, 3))
    regions = []
    for _ in range(draw(st.integers(0, max_regions))):
        p = draw(st.integers(0, max_rows))
        shapes = {"E": (p, 5), "e": (p,), "K": (Nu, 5), "g": (Nu,)}
        regions.append(CriticalRegion(
            **{k: draw(arrays(np.float64, s, elements=FINITE))
               for k, s in shapes.items()},
            active_set=tuple(draw(st.lists(st.integers(0, 2**31 - 1),
                                           max_size=Nu)))))
    return ExplicitSolution(regions, draw(st.integers(-2**31, 2**31 - 1)),
                            draw(arrays(np.float64, (5, 2), elements=FINITE)),
                            Nu, locate_tol=draw(st.floats(
                                min_value=0.0, allow_infinity=False)))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


def _bits(x) -> bytes:
    return np.asarray(x, np.float64).tobytes()


@SETTINGS
@given(sol=tables(), fmt=st.sampled_from(["json", "bin"]))
def test_round_trip_is_bit_exact(work, sol, fmt):
    path = work / f"t.{fmt}"
    export_table(sol, path, fmt=fmt)
    back = import_table(path)
    assert (back.segment_index, back.Nu) == (sol.segment_index, sol.Nu)
    assert _bits(back.locate_tol) == _bits(sol.locate_tol)
    assert _bits(back.theta_box) == _bits(sol.theta_box)
    assert back.n_regions == sol.n_regions
    for a, b in zip(sol.regions, back.regions):
        for k in "EeKg":
            assert getattr(b, k).shape == getattr(a, k).shape
            assert _bits(getattr(b, k)) == _bits(getattr(a, k))
            assert getattr(b, k).flags.writeable
        assert b.active_set == a.active_set
    again = work / f"again.{fmt}"
    export_table(back, again, fmt=fmt)
    assert again.read_bytes() == path.read_bytes()


@SETTINGS
@given(sol=tables(max_regions=2, max_rows=2),
       suffix=st.binary(min_size=1, max_size=64))
def test_binary_table_must_fill_the_file_exactly(work, sol, suffix):
    path = work / "t.bin"
    export_table(sol, path, fmt="bin")
    raw = path.read_bytes()
    bad = work / "bad.bin"
    for data in [raw[:k] for k in range(len(raw))] + [raw + suffix]:
        bad.write_bytes(data)
        with pytest.raises(ValueError):
            import_table(bad)


def _drop_key(doc, data):
    if doc["regions"] and data.draw(st.booleans()):
        region = data.draw(st.sampled_from(doc["regions"]))
        del region[data.draw(st.sampled_from(sorted(region)))]
    else:
        del doc[data.draw(st.sampled_from(sorted(doc)))]


def _set_theta_dim(doc, data):
    doc["theta_dim"] = data.draw(st.integers().filter(lambda n: n != 5))


def _resize_k(doc, data):
    region = data.draw(st.sampled_from(doc["regions"]))
    k = region["K"]
    region["K"] = k[:-1] if data.draw(st.booleans()) else k + [[0.0] * 5]


@SETTINGS
@given(sol=tables(max_regions=2, max_rows=4), data=st.data(),
       damage=st.sampled_from([_drop_key, _set_theta_dim, _resize_k]))
def test_damaged_json_table_is_a_value_error(work, sol, data, damage):
    path = work / "t.json"
    export_table(sol, path, fmt="json")
    doc = json.loads(path.read_text())
    if damage is _resize_k and not doc["regions"]:
        damage = _set_theta_dim
    damage(doc, data)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="t.json"):
        import_table(path)


REGION = CriticalRegion(E=np.ones((2, 5)), e=np.ones(2), K=np.ones((1, 5)),
                        g=np.zeros(1), active_set=(0,))


def _table(regions=(REGION,), box=((0.0, 1.0),) * 5, Nu=1, locate_tol=1e-9):
    return ExplicitSolution(list(regions), 1, np.array(box), Nu, locate_tol)


# each a table that export_table writes as it is and import_table refuses
BAD_TABLES = {
    "K_nan": _table([dataclasses.replace(REGION, K=np.full((1, 5), np.nan))]),
    "e_inf": _table([dataclasses.replace(REGION, e=np.array([1.0, np.inf]))]),
    "theta_box_-inf": _table(box=((0.0, 1.0),) * 4 + ((-np.inf, 1.0),)),
    "locate_tol_nan": _table(locate_tol=np.nan),
    "locate_tol_-1": _table(locate_tol=-1.0),
    "locate_tol_inf": _table(locate_tol=np.inf),
    "Nu_-2": _table(regions=(), Nu=-2),
}


@pytest.mark.parametrize("fmt", ["json", "bin"])
@pytest.mark.parametrize("name", list(BAD_TABLES))
def test_non_finite_or_negative_table_is_a_value_error(work, name, fmt):
    path = work / f"t.{fmt}"
    export_table(BAD_TABLES[name], path, fmt=fmt)
    with pytest.raises(ValueError, match=f"t.{fmt}"):
        import_table(path)

