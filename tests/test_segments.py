import json

import numpy as np
import pytest

from empcharge import model as mdl
from empcharge.segments import (DEFAULT_BREAKPOINTS, build_table,
                                default_table, linearize_at, select_segment)

# golden per-segment linearization values (vs_op, lambda1, lambda2, r0);
# derived independently from the polynomial tangent and resistance formula
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


def test_linearize_golden(params):
    for vs_op, l1, l2, r0c in GOLDEN:
        got = linearize_at(params, vs_op)
        assert got[0] == pytest.approx(l1, abs=1e-3), vs_op
        assert got[1] == pytest.approx(l2, abs=1e-3), vs_op
        assert got[2] == pytest.approx(r0c, abs=1e-3), vs_op


def test_linearize_is_tangent(params):
    for vs_op in (0.3, 0.6, 0.85):
        l1, l2, _ = linearize_at(params, vs_op)
        # tangency: value and slope match at the operating point
        assert l1 * vs_op + l2 == pytest.approx(mdl.ocv(params, vs_op),
                                                abs=1e-12)
        assert l1 == pytest.approx(mdl.ocv_slope(params, vs_op), abs=1e-12)


def test_linearize_rejects_out_of_range(params):
    with pytest.raises(ValueError):
        linearize_at(params, 1.2)
    with pytest.raises(ValueError):
        linearize_at(params, -0.1)


def test_default_table_matches_golden(table):
    assert len(table.segments) == 9
    for seg, (vs_op, l1, l2, r0c) in zip(table.segments, GOLDEN):
        assert seg.vs_op == vs_op
        assert seg.lambda1 == pytest.approx(l1, abs=1e-3)
        assert seg.lambda2 == pytest.approx(l2, abs=1e-3)
        assert seg.r0_const == pytest.approx(r0c, abs=1e-3)
    assert table.coverage == (0.20, 0.90)
    assert table.gamma1 == -0.04
    assert table.gamma2 == 0.08


def test_ocv_approx_error_small(params, table):
    # max tangent error over each segment stays below 15 mV
    worst = 0.0
    for seg in table.segments:
        vs = np.linspace(seg.vs_lo, seg.vs_hi, 500)
        approx = seg.lambda1 * vs + seg.lambda2
        worst = max(worst, float(np.max(np.abs(approx
                                               - mdl.ocv(params, vs)))))
    assert worst < 0.015


def test_r0_constant_is_conservative(params, table):
    # all segments but the first use vs_op = vs_hi, so the frozen R0 upper
    # bounds the true resistance across the segment (R0 increases with Vs)
    for seg in table.segments[1:]:
        assert seg.vs_op == seg.vs_hi
        vs = np.linspace(seg.vs_lo, seg.vs_hi, 200)
        assert np.all(seg.r0_const >= mdl.r0(params, vs) - 1e-12)


def test_output_map_exact_on_linearized_model(params, table):
    # y = C x + D must reproduce SoC, Vs, I, eta exactly and V through the
    # tangent OCV + frozen R0
    seg = table.segments[2]
    x = np.array([0.55, 0.65, 1.7])
    y = seg.C_mat @ x + seg.D_vec
    assert y[0] == pytest.approx(mdl.soc(params, x[0], x[1]), abs=1e-14)
    assert y[1] == pytest.approx(x[1])
    assert y[2] == pytest.approx(x[2])
    assert y[3] == pytest.approx(seg.lambda1 * x[1] + seg.lambda2
                                 + seg.r0_const * x[2], abs=1e-14)
    assert y[4] == pytest.approx(mdl.eta(params, table.gamma1, x[0], x[1]),
                                 abs=1e-14)


def test_select_segment_boundaries(table):
    # half-open [lo, hi); final segment closed; clamp outside coverage
    assert select_segment(table, 0.10) == 0
    assert select_segment(table, 0.20) == 0
    assert select_segment(table, 0.50) == 1
    assert select_segment(table, 0.59999) == 1
    assert select_segment(table, 0.60) == 2
    assert select_segment(table, 0.87) == 8
    assert select_segment(table, 0.90) == 8
    assert select_segment(table, 0.95) == 8


def test_build_table_validation(params):
    with pytest.raises(ValueError):
        build_table(params, [], -0.04, 0.08)
    with pytest.raises(ValueError):
        build_table(params, [(0.5, 0.4, 0.45)], -0.04, 0.08)
    with pytest.raises(ValueError):
        build_table(params, [(0.2, 0.5, 0.6)], -0.04, 0.08)
    with pytest.raises(ValueError):  # gap between segments
        build_table(params, [(0.2, 0.5, 0.4), (0.55, 0.7, 0.6)],
                    -0.04, 0.08)


def test_table_json_round_trip(table):
    doc = json.loads(table.to_json())
    assert doc["gamma1"] == table.gamma1
    assert doc["gamma2"] == table.gamma2
    assert len(doc["segments"]) == 9
    for row, seg in zip(doc["segments"], table.segments):
        assert row["index"] == seg.index
        assert row["lambda1"] == seg.lambda1
        assert row["r0_const"] == seg.r0_const
