"""Piecewise-linear output maps over Vs operating ranges.

The open-circuit voltage h(Vs) is replaced per segment by its tangent at an
operating point vs_op, and the series resistance R0(Vs) by its value there.
Each segment then has a linear output map y = C x + D over x = [Vb, Vs, I].
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import GAMMA1, GAMMA2, NdcParams, eta, ocv, ocv_slope, r0, soc

__all__ = [
    "LinearSegment",
    "SegmentTable",
    "linearize_at",
    "build_table",
    "select_segment",
    "default_breakpoints",
    "default_table",
]

# Default nine-segment breakpoints (vs_lo, vs_hi, vs_op).  All but the first
# segment use the upper end as operating point, which makes the constant R0
# an upper bound over the segment (R0 increases with Vs).
DEFAULT_BREAKPOINTS: tuple[tuple[float, float, float], ...] = (
    (0.20, 0.50, 0.39),
    (0.50, 0.60, 0.60),
    (0.60, 0.70, 0.70),
    (0.70, 0.74, 0.74),
    (0.74, 0.78, 0.78),
    (0.78, 0.81, 0.81),
    (0.81, 0.84, 0.84),
    (0.84, 0.87, 0.87),
    (0.87, 0.90, 0.90),
)


@dataclass(frozen=True)
class LinearSegment:
    index: int  # 1-based label
    vs_lo: float
    vs_hi: float
    vs_op: float
    lambda1: float
    lambda2: float
    r0_const: float
    C_mat: np.ndarray  # 5x3
    D_vec: np.ndarray  # 5


@dataclass(frozen=True)
class SegmentTable:
    segments: tuple[LinearSegment, ...]
    gamma1: float
    gamma2: float

    @property
    def coverage(self) -> tuple[float, float]:
        return (self.segments[0].vs_lo, self.segments[-1].vs_hi)

    def to_json(self) -> str:
        """The table's segments.json text: gamma1, gamma2 and each
        segment's linearization."""
        rows = []
        for s in self.segments:
            rows.append({
                "index": s.index,
                "vs_lo": s.vs_lo,
                "vs_hi": s.vs_hi,
                "vs_op": s.vs_op,
                "lambda1": s.lambda1,
                "lambda2": s.lambda2,
                "r0_const": s.r0_const,
            })
        return json.dumps({"gamma1": self.gamma1, "gamma2": self.gamma2,
                           "segments": rows}, indent=2)


def linearize_at(params: NdcParams, vs_op: float,
                 ) -> tuple[float, float, float]:
    """Tangent of h at vs_op plus the local R0 value."""
    if not 0.0 <= vs_op <= 1.0:
        raise ValueError("vs_op must lie in [0, 1]")
    lambda1 = float(ocv_slope(params, vs_op))
    lambda2 = float(ocv(params, vs_op)) - lambda1 * vs_op
    return lambda1, lambda2, float(r0(params, vs_op))


def _segment(params: NdcParams, index: int, vs_lo: float, vs_hi: float,
             vs_op: float, gamma1: float) -> LinearSegment:
    lambda1, lambda2, r0c = linearize_at(params, vs_op)
    # SoC and eta are linear in (Vb, Vs): their rows are the model's maps
    # at the unit vectors
    unit = ((1.0, 0.0), (0.0, 1.0))
    C = np.array([
        [soc(params, *v) for v in unit] + [0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, lambda1, r0c],
        [eta(params, gamma1, *v) for v in unit] + [0.0],
    ])
    D = np.array([0.0, 0.0, 0.0, lambda2, 0.0])
    return LinearSegment(index=index, vs_lo=vs_lo, vs_hi=vs_hi, vs_op=vs_op,
                         lambda1=lambda1, lambda2=lambda2, r0_const=r0c,
                         C_mat=C, D_vec=D)


def build_table(params: NdcParams, breakpoints, gamma1: float,
                gamma2: float) -> SegmentTable:
    """Build a segment table from ordered, contiguous (lo, hi, op) triples."""
    if not breakpoints:
        raise ValueError("need at least one segment")
    segs = []
    prev_hi = None
    for i, (lo, hi, op) in enumerate(breakpoints):
        if lo >= hi:
            raise ValueError(f"segment {i + 1}: vs_lo must be below vs_hi")
        if not lo <= op <= hi:
            raise ValueError(f"segment {i + 1}: vs_op outside range")
        if prev_hi is not None and abs(lo - prev_hi) > 1e-12:
            raise ValueError(f"segment {i + 1}: gap or overlap at {lo}")
        prev_hi = hi
        segs.append(_segment(params, i + 1, lo, hi, op, gamma1))
    return SegmentTable(segments=tuple(segs), gamma1=gamma1, gamma2=gamma2)


def default_breakpoints():
    return DEFAULT_BREAKPOINTS


def default_table(params: NdcParams | None = None, gamma1: float = GAMMA1,
                  gamma2: float = GAMMA2) -> SegmentTable:
    return build_table(params or NdcParams(), DEFAULT_BREAKPOINTS,
                       gamma1, gamma2)


def select_segment(table: SegmentTable, Vs: float) -> int:
    """0-based position of the segment owning Vs.

    Segments are half-open [vs_lo, vs_hi); the final segment is closed.
    Vs outside the covered range clamps to the nearest end segment.
    """
    segs = table.segments
    if Vs < segs[0].vs_lo:
        return 0
    for i, s in enumerate(segs):
        if Vs < s.vs_hi:
            return i
    return len(segs) - 1
