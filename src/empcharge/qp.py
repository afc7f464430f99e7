"""Dense small-scale convex QP solver and polyhedral LP utilities.

The QP solver is a primal active-set method: it tracks a working set of
constraints treated as equalities, moves along equality-constrained Newton
steps, and adds/removes constraints with deterministic lowest-index
tie-breaking.  Problems here are tiny (a handful of variables, a few dozen
rows), so dense factorizations are fine.

LP subproblems (phase-1 feasibility, Chebyshev centers, redundancy removal)
go through scipy's HiGHS linprog.  A call this small costs several times
more in scipy's input handling than in HiGHS, so redundancy removal stacks
a polytope's per-row LPs block-diagonally into one call, confirms the rows
it flags redundant with a second, and falls back to one LP per row, in row
order, only for what the two leave open; the kept rows are those of the
row-by-row order (see ``remove_redundant``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import block_diag

__all__ = [
    "DenseQp",
    "QpSolution",
    "QpError",
    "solve_qp",
    "lp_feasible",
    "chebyshev_center",
    "remove_redundant",
]

FEAS_TOL = 1e-8
MULT_TOL = 1e-9
# a ray-certified facet overshoots its bound by more than this
_RAY_MARGIN = 1e-6
# a row is redundant when its LP optimum stays within this of its bound
_REDUNDANT_TOL = 1e-9
# Chebyshev LPs box z and cap the radius so unbounded polyhedra stay bounded
_CHEBYSHEV_BOX = 1e6
# rows of G with norms at or below this are zero rows: they never get active
ZERO_ROW_TOL = 1e-12


class QpError(Exception):
    pass


@dataclass(frozen=True)
class DenseQp:
    """min 0.5 z'Hz + f'z  s.t.  G z <= w."""

    H: np.ndarray
    f: np.ndarray
    G: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        if not np.allclose(self.H, self.H.T, atol=1e-10):
            raise QpError("H must be symmetric")


@dataclass(frozen=True)
class QpSolution:
    z_star: np.ndarray | None
    active_set: tuple[int, ...]
    multipliers: np.ndarray
    status: str  # "optimal" or "infeasible"


def _feasible_start(G: np.ndarray, w: np.ndarray,
                    candidates) -> np.ndarray | None:
    for z in candidates:
        if z is not None and np.all(G @ z <= w + FEAS_TOL):
            return np.asarray(z, dtype=float)
    n = G.shape[1]
    res = linprog(np.zeros(n), A_ub=G, b_ub=w, bounds=[(None, None)] * n,
                  method="highs")
    return res.x if res.success else None


def solve_qp(qp: DenseQp, z0: np.ndarray | None = None) -> QpSolution:
    """Solve the QP; H must be positive definite.

    Rows of G that are (numerically) zero cannot become active: they are
    either trivially satisfied or make the problem infeasible outright.
    Without other rows the loop starts at, and returns, the unconstrained
    minimizer.
    """
    H, f, w = qp.H, np.asarray(qp.f, float), np.asarray(qp.w, float)
    n = H.shape[0]
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise QpError("H is not positive definite") from exc
    G = np.asarray(qp.G, float).reshape(-1, n)

    nonzero = np.linalg.norm(G, axis=1) > ZERO_ROW_TOL
    if np.any(w[~nonzero] < -FEAS_TOL):
        return QpSolution(None, (), np.zeros(0), "infeasible")
    Gi, wi = G[nonzero], w[nonzero]
    idx_map = np.flatnonzero(nonzero)

    z = _feasible_start(Gi, wi, [z0, -np.linalg.solve(H, f), np.zeros(n)])
    if z is None:
        return QpSolution(None, (), np.zeros(0), "infeasible")

    work: list[int] = []
    for _ in range(200 + 20 * len(G)):
        # equality-constrained Newton step on the working set
        A = Gi[work]
        K = np.zeros((n + len(work),) * 2)
        K[:n, :n], K[:n, n:], K[n:, :n] = H, A.T, A
        rhs = np.concatenate([-(H @ z + f), np.zeros(len(work))])
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError as exc:
            raise QpError("singular KKT system") from exc
        p, lam = sol[:n], sol[n:]

        if np.linalg.norm(p) <= 1e-11:
            if np.all(lam >= -MULT_TOL):
                order = np.argsort(work)
                act = tuple(int(idx_map[work[i]]) for i in order)
                return QpSolution(z, act, np.maximum(lam[order], 0.0),
                                  "optimal")
            # drop the most negative multiplier, lowest index on ties
            work.pop(min(range(len(work)), key=lambda i: (lam[i], work[i])))
            continue

        # ratio test over constraints not in the working set
        alpha, blocker = 1.0, None
        gp = Gi @ p
        slack = wi - Gi @ z
        for i in range(Gi.shape[0]):
            if i in work or gp[i] <= 1e-12:
                continue
            a = slack[i] / gp[i]
            if a < alpha - 1e-12:
                alpha, blocker = a, i
        z = z + max(alpha, 0.0) * p
        if blocker is not None:
            work.append(blocker)
    raise QpError("active-set iteration limit exceeded")


def chebyshev_center(G: np.ndarray, w: np.ndarray,
                     ) -> tuple[np.ndarray, float] | None:
    """Largest inscribed ball of {z: Gz <= w}; None when empty.

    The ball radius is capped and z is boxed (_CHEBYSHEV_BOX) so the LP
    stays bounded for unbounded polyhedra.
    """
    G = np.atleast_2d(np.asarray(G, float))
    w = np.asarray(w, float)
    m, n = G.shape
    norms = np.linalg.norm(G, axis=1)
    keep = norms > ZERO_ROW_TOL
    if np.any(w[~keep] < 0):
        return None
    G, w, norms = G[keep], w[keep], norms[keep]
    if G.shape[0] == 0:
        return np.zeros(n), _CHEBYSHEV_BOX
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A = np.hstack([G, norms[:, None]])
    bounds = [(-_CHEBYSHEV_BOX, _CHEBYSHEV_BOX)] * n + [(0.0, _CHEBYSHEV_BOX)]
    res = linprog(c, A_ub=A, b_ub=w, bounds=bounds, method="highs")
    if not res.success:
        return None
    return res.x[:n], float(res.x[n])


def lp_feasible(G: np.ndarray, w: np.ndarray, tol: float = 1e-9,
                ) -> tuple[bool, np.ndarray | None]:
    """Strict-interior feasibility via the Chebyshev-center LP.

    Returns (True, witness) when the polyhedron has nonempty interior,
    (False, None) otherwise.
    """
    out = chebyshev_center(G, w)
    if out is None or out[1] <= tol:
        return False, None
    return True, out[0]


def _ray_facets(G: np.ndarray, w: np.ndarray, center: np.ndarray,
                ) -> np.ndarray:
    """Rows of {Gz <= w} that a ray proves to be facets: from the feasible
    point ``center`` along row i's normal, the ray crosses row i first and
    stays inside every other row until G_i z exceeds w_i by _RAY_MARGIN
    (or by 1, the cap row of the redundancy LP).  That point is feasible
    for row i's LP, whose optimum thus clears its tolerance by far."""
    norms = np.linalg.norm(G, axis=1)
    slack = w - G @ center
    # rate[i, j]: growth of G_j z per unit step along row i's unit normal
    rate = (G / norms[:, None]) @ G.T
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(rate > 0, slack / rate, np.inf)
    np.fill_diagonal(reach, np.inf)
    excess = np.minimum(norms * reach.min(axis=1, initial=np.inf) - slack,
                        1.0)
    return (excess > _RAY_MARGIN) & np.all(slack >= 0)


def _redundant_rows(G: np.ndarray, w: np.ndarray, rows: list[int],
                    against: list[int], counts: Counter,
                    ) -> np.ndarray | None:
    """Whether each row i in rows is redundant given the rows in against
    (i itself left out), from one linprog over the block-diagonal stack of
    their LPs, max G_i z_i subject to those rows and the cap row
    G_i z_i <= w_i + 1; None when HiGHS does not report success.  Each
    maximum is G_i z_i, read from its own block of x: res.fun is only
    their sum."""
    blocks, b = [], []
    for i in rows:
        others = [j for j in against if j != i]
        blocks.append(np.vstack([G[others], G[i:i + 1]]))
        b += [w[others], [w[i] + 1.0]]
    res = linprog(-G[rows].ravel(), A_ub=block_diag(blocks, format="csr"),
                  b_ub=np.concatenate(b), bounds=(None, None),
                  method="highs")
    counts["redundancy_lps"] += len(rows)
    counts["redundancy_lp_calls"] += 1
    if not res.success:
        return None
    top = np.einsum("kj,kj->k", G[rows], res.x.reshape(len(rows), -1))
    return top <= w[rows] + _REDUNDANT_TOL


def remove_redundant(G: np.ndarray, w: np.ndarray, center: np.ndarray,
                     *, counts: Counter | None = None,
                     ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Minimal representation of a nonempty polyhedron {Gz <= w}.

    Row i is redundant when max G_i z over the remaining rows stays at or
    below w_i.  The max LP adds the row G_i z <= w_i + 1 so it is bounded
    even for unbounded polyhedra.  Rows that a ray from ``center``, a point
    of the polyhedron such as its Chebyshev center, proves to be facets
    skip that LP; the kept rows are the same.  A center outside the
    polyhedron certifies nothing.

    The kept rows are those of one LP per row, in row order, each over the
    rows still kept, dropping a row as soon as it is found redundant.  A
    linprog call this small spends most of its time in scipy, not in
    HiGHS, so the LPs are stacked instead:

    1. One stacked solve tests every uncertified row against all other
       rows.  A row found non-redundant is kept: its row-order LP has a
       subset of these constraints, so its maximum is no smaller.
    2. Rows flagged redundant, when there are two or more, are tested again
       by a second stacked solve against the unflagged rows only.  Each
       row-order LP has at least those constraints, so a row confirmed
       here is redundant there too; when all are confirmed, all go.  A lone
       flagged row saw exactly its row-order LP in step 1.
    3. What the stacked solves leave open, a flagged row not confirmed
       (two near-duplicate rows of one facet flag each other) or a solve
       without success, is settled by the row-order LPs over the flagged
       rows alone, the unflagged rows being kept either way.

    ``counts``, when given, tallies redundancy_lps (row LPs solved, blocks
    of a stacked solve included), redundancy_lp_calls (linprog calls),
    redundancy_sequential_rows (rows settled in step 3) and
    certified_rows.
    """
    G = np.atleast_2d(np.asarray(G, float))
    w = np.asarray(w, float)
    norms = np.linalg.norm(G, axis=1)
    counts = Counter() if counts is None else counts

    kept = [i for i in range(G.shape[0]) if norms[i] > ZERO_ROW_TOL]
    # drop exact duplicates (same normalized row, same or looser bound)
    uniq: list[int] = []
    for i in kept:
        gi, wi_ = G[i] / norms[i], w[i] / norms[i]
        if not any(np.linalg.norm(G[j] / norms[j] - gi) < 1e-12
                   and w[j] / norms[j] <= wi_ + 1e-12 for j in uniq):
            uniq.append(i)
    kept = uniq

    ray = _ray_facets(G[kept], w[kept], center)
    counts["certified_rows"] += int(ray.sum())
    open_rows = [i for i, r in zip(kept, ray) if not r]
    if not open_rows:
        return G[kept], w[kept], kept

    flagged = open_rows
    red = _redundant_rows(G, w, open_rows, kept, counts)
    if red is not None:
        flagged = [i for i, r in zip(open_rows, red) if r]
        rest = [i for i in kept if i not in flagged]
        if len(flagged) < 2:
            return G[rest], w[rest], rest
        red = _redundant_rows(G, w, flagged, rest, counts)
        if red is not None and red.all():
            return G[rest], w[rest], rest

    counts["redundancy_sequential_rows"] += len(flagged)
    for i in flagged:
        red = _redundant_rows(G, w, [i], kept, counts)
        if red is not None and red[0]:
            kept.remove(i)
    return G[kept], w[kept], kept
