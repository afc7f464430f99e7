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

from .model import GAMMA2, DiscreteModel, NdcState
from .qp import ZERO_ROW_TOL, DenseQp
from .segments import LinearSegment

__all__ = ["MpcConfig", "MpqpProblem", "build", "assemble_theta",
           "THETA_DIM", "I_MIN", "I_MAX"]

THETA_DIM = 5

# output row order: SoC, Vs, I, V, eta
_ROW_SOC, _ROW_ETA = 0, 4
_ROW_NAMES = ("soc", "Vs", "I", "V", "eta")

I_MIN, I_MAX = 0.0, 3.0  # charging current limits [A]
# bounds on [SoC, Vs, I, V]; +-inf disables a row.  eta's bounds are
# (-inf, gamma2), added by MpcConfig.bounds_with_gamma2
Y_MIN = (-math.inf, -math.inf, I_MIN, -math.inf)
Y_MAX = (math.inf, 0.95, I_MAX, 4.2)


@dataclass(frozen=True)
class MpcConfig:
    N: int = 10
    Nu: int = 2
    Nc_eta: int = 2
    Nc_other: int = 1
    Q: float = 1.0
    R: float = 0.1
    gamma2: float = GAMMA2

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
        """Lower and upper bounds on [SoC, Vs, I, V, eta]."""
        return (np.array(Y_MIN + (-math.inf,)),
                np.array(Y_MAX + (self.gamma2,)))

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

    def qp(self, theta: np.ndarray) -> DenseQp:
        """The QP at parameter theta, with f = F theta and w = S theta + W."""
        return DenseQp(self.Sigma, self.F @ theta, self.G,
                       self.S @ theta + self.W)


def assemble_theta(x: NdcState, r: float, u_prev: float) -> np.ndarray:
    return np.array([x.Vb, x.Vs, x.I, r, u_prev])


def _prediction_maps(model: DiscreteModel, N: int, Nu: int):
    """x_k as an affine map of theta and z, stacked over k = 0..N.

    The plant input at step i is u_i = u_prev + sum_{j<=i} du_j with
    du_j = 0 for j >= Nu, so each move du_j feeds every step from j on:

        x_k = Xx[k] x0 + Xu[k] u_prev + Xz[k] z,
        Xx[k] = A^k,  Xu[k] = sum_{m<k} A^m B,
        Xz[k][:, j] = Xu[k-j] for j < k, else 0,

    with shapes Xx (N+1, 3, 3), Xu (N+1, 3) and Xz (N+1, 3, Nu).
    """
    A, B = model.A_aug, model.B_aug
    Xx = np.empty((N + 1, 3, 3))
    Xx[0] = np.eye(3)
    for k in range(N):
        Xx[k + 1] = A @ Xx[k]
    Xu = np.zeros((N + 1, 3))
    np.cumsum((Xx[:N] @ B)[:, :, 0], axis=0, out=Xu[1:])
    # Xu[0] = 0, so clipping k-j at 0 zeroes the moves not yet taken
    lag = np.arange(N + 1)[:, None] - np.arange(Nu)[None, :]
    Xz = Xu[np.maximum(lag, 0)].transpose(0, 2, 1)
    return Xx, Xu, Xz


def build(model: DiscreteModel, segment: LinearSegment,
          cfg: MpcConfig) -> MpqpProblem:
    """Condense the tracking MPC for one segment into parametric form.

    The SoC tracking error is penalized at k = 0..N-1; constraints are
    imposed at k = 1..Nc per row family (the input increment decided now
    first shows up in the step-1 outputs).
    """
    N, Nu = cfg.N, cfg.Nu
    Xx, Xu, Xz = _prediction_maps(model, N, Nu)
    C, D = segment.C_mat, segment.D_vec
    c_soc = C[_ROW_SOC]

    # SoC_k - r = a[k] z + lin[k] theta for k = 0..N-1
    a = c_soc @ Xz[:N]
    lin = np.zeros((N, THETA_DIM))
    lin[:, :3] = c_soc @ Xx[:N]
    lin[:, 3] = -1.0
    lin[:, 4] = Xu[:N] @ c_soc
    Sigma = cfg.Q * (a.T @ a) + cfg.R * np.eye(Nu)
    F = cfg.Q * (a.T @ lin)
    Y = cfg.Q * (lin.T @ lin)

    lo, hi = cfg.bounds_with_gamma2()
    spec = []                           # (k, row, sign, bound, label)
    for k in range(1, max(cfg.Nc_eta, cfg.Nc_other) + 1):
        for row in range(5):
            if k > cfg.nc_for_row(row):
                continue
            if math.isfinite(hi[row]):
                spec.append((k, row, 1.0, hi[row] - D[row],
                             f"{_ROW_NAMES[row]}<= @k={k}"))
            if math.isfinite(lo[row]):
                spec.append((k, row, -1.0, D[row] - lo[row],
                             f"{_ROW_NAMES[row]}>= @k={k}"))
    ks, rows, sign, W, labels = zip(*spec)
    ks = np.array(ks)
    Cs = np.array(sign)[:, None] * C[list(rows)]    # output rows, signed
    G = np.einsum("ri,rij->rj", Cs, Xz[ks])
    S = np.zeros((len(spec), THETA_DIM))
    S[:, :3] = -np.einsum("ri,rij->rj", Cs, Xx[ks])
    S[:, 4] = -np.einsum("ri,ri->r", Cs, Xu[ks])
    vacuous = ((np.linalg.norm(G, axis=1) <= ZERO_ROW_TOL)
               & (np.linalg.norm(S, axis=1) <= ZERO_ROW_TOL))
    if vacuous.any():
        bad = labels[vacuous.argmax()]
        raise ValueError(f"vacuous constraint row: {bad}")

    return MpqpProblem(
        Sigma=Sigma, F=F, Y=Y, G=G, S=S, W=np.array(W),
        segment_index=segment.index, labels=labels,
    )
