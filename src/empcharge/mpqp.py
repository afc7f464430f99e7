"""Condensing of the per-segment linear MPC problem into parametric form.

The MPC tracks a SoC reference with the move sequence z = [du_0 .. du_{Nu-1}]
as decision variables, where the plant input at step k is u_prev + du_k
(du_k = 0 for k >= Nu).  States are eliminated, yielding

    min_z 0.5 z' Sigma z + (F theta)' z  (+ 0.5 theta' Y theta)
    s.t.  G z <= S theta + W

over the parameter vector theta = [Vb, Vs, I, r, u_prev].  Y collects the
theta-only quadratic term; it does not move the minimizer but is kept so the
condensed cost can be checked against direct simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DiscreteModel, NdcState
from .segments import LinearSegment

__all__ = ["MpcConfig", "MpqpProblem", "build", "assemble_theta",
           "THETA_DIM"]

THETA_DIM = 5

# output row order: SoC, Vs, I, V, eta
_ROW_SOC, _ROW_VS, _ROW_I, _ROW_V, _ROW_ETA = range(5)


@dataclass(frozen=True)
class MpcConfig:
    N: int = 10
    Nu: int = 2
    Nc_eta: int = 2
    Nc_other: int = 1
    Q: float = 1.0
    R: float = 0.1
    # bounds on [SoC, Vs, I, V, eta]; +-inf disables a row
    y_min: tuple[float, ...] = (-math.inf, -math.inf, 0.0, -math.inf,
                                -math.inf)
    y_max: tuple[float, ...] = (math.inf, 0.95, 3.0, 4.2, 0.08)
    gamma1: float = -0.04
    gamma2: float = 0.08

    def __post_init__(self) -> None:
        if not 1 <= self.Nu <= self.N:
            raise ValueError("need 1 <= Nu <= N")
        if self.Nc_eta < 1 or self.Nc_other < 1:
            raise ValueError("constraint horizons must be >= 1")
        if max(self.Nc_eta, self.Nc_other) > self.N:
            raise ValueError("constraint horizon exceeds N")
        if self.Q < 0 or self.R <= 0:
            raise ValueError("need Q >= 0 and R > 0")

    def bounds_with_gamma2(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array(self.y_min, dtype=float)
        hi = np.array(self.y_max, dtype=float)
        hi[_ROW_ETA] = self.gamma2
        return lo, hi

    def nc_for_row(self, row: int) -> int:
        return self.Nc_eta if row == _ROW_ETA else self.Nc_other


@dataclass(frozen=True)
class MpqpProblem:
    Sigma: np.ndarray       # Nu x Nu
    F: np.ndarray           # Nu x 5
    Y: np.ndarray           # 5 x 5 theta-only cost quadratic
    G: np.ndarray           # m x Nu
    S: np.ndarray           # m x 5
    W: np.ndarray           # m
    segment_index: int
    labels: tuple[str, ...]  # one per constraint row, for diagnostics
    theta_dim: int = THETA_DIM


def assemble_theta(x: NdcState, r: float, u_prev: float) -> np.ndarray:
    return np.array([x.Vb, x.Vs, x.I, r, u_prev])


def _prediction_maps(model: DiscreteModel, N: int, Nu: int):
    """x_k as an affine map of theta and z.

    The plant input at step i is u_i = u_prev + sum_{j<=i} du_j with
    du_j = 0 for j >= Nu, so each move du_j feeds every step from j on:

        x_k = Xx[k] x0 + Xu[k] u_prev + Xz[k] z,
        Xz[k][:, j] = sum_{i=j}^{k-1} A^(k-1-i) B.
    """
    A, B = model.A_aug, model.B_aug
    powers = [np.eye(3)]
    for _ in range(N):
        powers.append(A @ powers[-1])
    Xx, Xu, Xz = [], [], []
    for k in range(N + 1):
        Xx.append(powers[k])
        acc = np.zeros((3, 1))
        M = np.zeros((3, Nu))
        for i in range(k):
            col = powers[k - 1 - i] @ B
            acc += col
            for j in range(min(i + 1, Nu)):
                M[:, j:j + 1] += col
        Xu.append(acc)
        Xz.append(M)
    return Xx, Xu, Xz


def build(model: DiscreteModel, segment: LinearSegment,
          cfg: MpcConfig) -> MpqpProblem:
    """Condense the tracking MPC for one segment into parametric form.

    The SoC tracking error is penalized at k = 0..N-1; constraints are
    imposed at k = 1..Nc per row family (the input increment decided now
    first shows up in the step-1 outputs).
    """
    N, Nu = cfg.N, cfg.Nu
    Xx, Xu, Xz = _prediction_maps(model, max(N, cfg.Nc_eta, cfg.Nc_other), Nu)
    C, D = segment.C_mat, segment.D_vec
    c_soc = C[_ROW_SOC]

    Sigma = np.zeros((Nu, Nu))
    F = np.zeros((Nu, THETA_DIM))
    Y = np.zeros((THETA_DIM, THETA_DIM))
    for k in range(N):
        a = c_soc @ Xz[k]                       # SoC_k dependence on z
        lin = np.zeros(THETA_DIM)               # ... and on theta
        lin[:3] = c_soc @ Xx[k]
        lin[4] = float((c_soc @ Xu[k])[0])
        lin[3] = -1.0                           # minus the reference
        Sigma += cfg.Q * np.outer(a, a)
        F += cfg.Q * np.outer(a, lin)
        Y += cfg.Q * np.outer(lin, lin)
    Sigma += cfg.R * np.eye(Nu)

    lo, hi = cfg.bounds_with_gamma2()
    G_rows, S_rows, W_rows, labels = [], [], [], []
    names = ("soc", "Vs", "I", "V", "eta")
    for k in range(1, max(cfg.Nc_eta, cfg.Nc_other) + 1):
        for row in range(5):
            if k > cfg.nc_for_row(row):
                continue
            if not (math.isfinite(hi[row]) or math.isfinite(lo[row])):
                continue
            gz = C[row] @ Xz[k]
            sx = C[row] @ Xx[k]
            su = float((C[row] @ Xu[k])[0])
            if math.isfinite(hi[row]):
                G_rows.append(gz)
                S_rows.append(np.array([-sx[0], -sx[1], -sx[2], 0.0, -su]))
                W_rows.append(hi[row] - D[row])
                labels.append(f"{names[row]}<= @k={k}")
            if math.isfinite(lo[row]):
                G_rows.append(-gz)
                S_rows.append(np.array([sx[0], sx[1], sx[2], 0.0, su]))
                W_rows.append(D[row] - lo[row])
                labels.append(f"{names[row]}>= @k={k}")
    if not G_rows:
        raise ValueError("configuration produces no constraint rows")
    for g, s, lab in zip(G_rows, S_rows, labels):
        if np.linalg.norm(g) < 1e-12 and np.linalg.norm(s) < 1e-12:
            raise ValueError(f"vacuous constraint row: {lab}")

    return MpqpProblem(
        Sigma=Sigma, F=F, Y=Y,
        G=np.array(G_rows), S=np.array(S_rows), W=np.array(W_rows),
        segment_index=segment.index, labels=tuple(labels),
    )
