"""Condensing of the per-segment linear MPC problem into parametric form.

The MPC tracks a SoC reference with the move sequence z = [du_0 .. du_{Nu-1}]
as decision variables.  The plant input at step k is the current increment

    u_k = u_prev + sum_{j<=k} du_j        (du_j = 0 for j >= Nu),

so I_{k+1} = I_k + u_k.  States are eliminated, yielding

    min_z 0.5 z' Sigma z + (F theta)' z
    s.t.  G z <= S theta + W

over the parameter vector theta = [Vb, Vs, I, r, u_prev].  The cost's
theta-only quadratic term does not move the minimizer and is left out.

``build`` is the one condensing path: synthesis, the online-QP controller
and NMPC all call it.  Of its work, only the constraint rows' output maps
belong to the segment.  The prediction maps, Sigma, F and the row plan
depend on the model's matrices, the SoC row of C and the MpcConfig alone.
The last condensing is kept, keyed by those values, so an NMPC step,
which condenses a fresh linearization with the same SoC row, forms only
its output rows.  Every array ``build`` returns is read-only, because Sigma
and F are the memo's own, shared by every segment problem it serves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import GAMMA2, DiscreteModel, NdcState
from .qp import DenseQp
from .segments import LinearSegment

__all__ = ["MpcConfig", "MpqpProblem", "build", "assemble_theta",
           "THETA_DIM", "I_MIN", "I_MAX"]

THETA_DIM = 5

I_MIN, I_MAX = 0.0, 3.0  # charging current limits [A]


@dataclass(frozen=True)
class MpcConfig:
    N: int = 10
    Nu: int = 2
    Nc_eta: int = 2
    Q: float = 1.0
    R: float = 0.1
    gamma2: float = GAMMA2

    def __post_init__(self) -> None:
        if not 1 <= self.Nu <= self.N:
            raise ValueError("need 1 <= Nu <= N")
        if not 1 <= self.Nc_eta <= self.N:
            raise ValueError("need 1 <= Nc_eta <= N")
        if self.Q < 0 or self.R <= 0:
            raise ValueError("need Q >= 0 and R > 0")


@dataclass(frozen=True)
class MpqpProblem:
    Sigma: np.ndarray       # Nu x Nu
    F: np.ndarray           # Nu x 5
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


def _prediction_maps(A: np.ndarray, N: int, Nu: int):
    """x_k as an affine map of theta and z, stacked over k = 0..N.

    The plant input at step i is u_i = u_prev + sum_{j<=i} du_j with
    du_j = 0 for j >= Nu, so each move du_j feeds every step from j on:

        x_k = Xx[k] x0 + Xu[k] u_prev + Xz[k] z,
        Xx[k] = A^k,  Xu[k] = sum_{m<k} A^m B,
        Xz[k][:, j] = Xu[k-j] for j < k, else 0,

    with shapes Xx (N+1, 3, 3), Xu (N+1, 3) and Xz (N+1, 3, Nu).  A is
    the model's A_aug and B its input map e_2, so A^m B is column 2 of A^m.
    """
    Xx = np.empty((N + 1, 3, 3))
    Xx[0] = np.eye(3)
    for k in range(N):
        Xx[k + 1] = A @ Xx[k]
    Xu = np.zeros((N + 1, 3))
    np.cumsum(Xx[:N, :, 2], axis=0, out=Xu[1:])
    # Xu[0] = 0, so clipping k-j at 0 zeroes the moves not yet taken
    lag = np.arange(N + 1)[:, None] - np.arange(Nu)[None, :]
    Xz = Xu[np.maximum(lag, 0)].transpose(0, 2, 1)
    return Xx, Xu, Xz


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class _Condensing:
    """The part of build that the segment's output rows do not enter: the
    cost, and per constraint row its output row of C, sign, signed bound
    and label, and the prediction maps at the row's step k."""
    Sigma: np.ndarray
    F: np.ndarray
    rows: np.ndarray
    sign: np.ndarray
    signed_bound: np.ndarray
    Xz: np.ndarray          # m x 3 x Nu
    Xx: np.ndarray          # m x 3 x 3
    Xu: np.ndarray          # m x 3
    labels: tuple[str, ...]


@functools.lru_cache(maxsize=1)
def _condensing(A_aug: bytes, c_soc: bytes, cfg: MpcConfig) -> _Condensing:
    """The _Condensing of the model matrix A_aug and the SoC row of C, both
    as float64 bytes, so that the cache keys on their values."""
    c_soc = np.frombuffer(c_soc)
    N, Nu = cfg.N, cfg.Nu
    Xx, Xu, Xz = _prediction_maps(np.frombuffer(A_aug).reshape(3, 3), N, Nu)

    # SoC_k - r = a[k] z + lin[k] theta for k = 0..N-1
    a = c_soc @ Xz[:N]
    lin = np.zeros((N, THETA_DIM))
    lin[:, :3] = c_soc @ Xx[:N]
    lin[:, 3] = -1.0
    lin[:, 4] = Xu[:N] @ c_soc
    Sigma = cfg.Q * (a.T @ a) + cfg.R * np.eye(Nu)
    F = cfg.Q * (a.T @ lin)

    # sign * y_k[row] <= sign * bound for k = 1..last, over the output rows
    # [SoC, Vs, I, V, eta] of C; stored active sets index the rows in this
    # order within each k
    bounds = ((1, 1.0, 0.95, "Vs<=", 1),
              (2, 1.0, I_MAX, "I<=", 1),
              (2, -1.0, I_MIN, "I>=", 1),
              (3, 1.0, 4.2, "V<=", 1),
              (4, 1.0, cfg.gamma2, "eta<=", cfg.Nc_eta))
    ks, rows, sign, signed_bound, labels = zip(*(
        (k, row, sg, sg * bound, f"{name} @k={k}")
        for k in range(1, cfg.Nc_eta + 1)
        for row, sg, bound, name, last in bounds if k <= last))
    ks = np.array(ks)
    return _Condensing(
        *_read_only(Sigma, F, np.array(rows), np.array(sign),
                    np.array(signed_bound), Xz[ks], Xx[ks], Xu[ks]),
        labels=labels)


def build(model: DiscreteModel, segment: LinearSegment,
          cfg: MpcConfig) -> MpqpProblem:
    """Condense the tracking MPC for one segment into parametric form.

    The SoC tracking error is penalized at k = 0..N-1; constraints are
    imposed at k = 1 for Vs, I and V, k = 1..Nc_eta for eta (a move decided
    now first shows up in the step-1 outputs).  The rest, all but the
    segment's output rows of C and offsets D, comes memoized from _condensing.
    """
    c = _condensing(model.A_aug.tobytes(), segment.C_mat[0].tobytes(), cfg)
    Cs = c.sign[:, None] * segment.C_mat[c.rows]    # output rows, signed
    G = np.einsum("ri,rij->rj", Cs, c.Xz)
    S = np.zeros((len(c.rows), THETA_DIM))
    S[:, :3] = -np.einsum("ri,rij->rj", Cs, c.Xx)
    S[:, 4] = -np.einsum("ri,ri->r", Cs, c.Xu)
    # sign * bound - sign * D: sign * (bound - D) would store -0.0 for
    # I >= 0 and change the exported tables
    W = c.signed_bound - c.sign * segment.D_vec[c.rows]
    _read_only(G, S, W)
    return MpqpProblem(Sigma=c.Sigma, F=c.F, G=G, S=S, W=W,
                       segment_index=segment.index, labels=c.labels)
