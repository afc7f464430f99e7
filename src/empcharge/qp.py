"""Dense small-scale convex QP solver and polyhedral LP utilities.

The QP solver is a primal active-set method: it tracks a working set of
constraints treated as equalities, moves along equality-constrained Newton
steps, and adds/removes constraints with deterministic lowest-index
tie-breaking.  Problems here are tiny (a handful of variables, a few dozen
rows), so dense factorizations are fine.  At that size numpy's fixed cost
per call outweighs the arithmetic: ``DenseQp`` checks symmetry on Python
floats with np.allclose's rule, and ``solve_qp`` returns a feasible
unconstrained minimizer at once, before any feasible-start search or KKT
solve.  Every solve is cold: no caller has a start worth passing.

LP subproblems (phase-1 feasibility, Chebyshev centers) go through scipy's
HiGHS linprog.  A call this small costs several times more in scipy's input
handling than in HiGHS, so ``chebyshev_centers`` stacks the Chebyshev LPs
of many polytopes block-diagonally into one call; ``chebyshev_center`` is
its one-element call.  Redundancy removal makes no LP: ``remove_redundant``
reads a polytope's facets from qhull's halfspace intersection (Barber,
Dobkin & Huhdanpaa, ACM TOMS 1996) around an interior point.

No module imports scipy at module level: the online law needs numpy alone,
and importing scipy.optimize costs about 0.6 s of a fresh process.  scipy
is imported inside ``linprog``, ``chebyshev_centers`` and
``remove_redundant``.  ``linprog`` stays a module attribute, a function that
imports scipy's on its first call, so that every LP passes one name, the
one the tests and the benchmark's tracer wrap.  ``load_scipy`` imports it
ahead of use: synthesis and the online-QP controllers call it before their
clocks start, so no time the program reports includes the import.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DenseQp",
    "QpSolution",
    "QpError",
    "solve_qp",
    "lp_feasible",
    "chebyshev_centers",
    "chebyshev_center",
    "remove_redundant",
    "load_scipy",
]

FEAS_TOL = 1e-8
MULT_TOL = 1e-9
# Chebyshev LPs box z and cap the radius so unbounded polyhedra stay bounded
_CHEBYSHEV_BOX = 1e6
# rows of G with norms at or below this are zero rows: they never get active
ZERO_ROW_TOL = 1e-12


class QpError(Exception):
    pass


def load_scipy() -> None:
    """Import every scipy module this module calls, so that the first LP
    or halfspace intersection of a timed span does not pay for it."""
    import scipy.optimize, scipy.sparse, scipy.spatial  # noqa: E401, F401


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call."""
    import scipy.optimize
    return scipy.optimize.linprog(*args, **kwargs)


@dataclass(frozen=True)
class DenseQp:
    """min 0.5 z'Hz + f'z  s.t.  G z <= w."""

    H: np.ndarray
    f: np.ndarray
    G: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        if not _symmetric(self.H):
            raise QpError("H must be symmetric")


def _symmetric(H: np.ndarray) -> bool:
    """np.allclose(H, H.T, atol=1e-10), entry by entry on Python floats:
    |a - b| <= 1e-10 + 1e-5 |b| with b finite, or a == b.  A non-square
    H, which np.allclose cannot broadcast, is not symmetric.  numpy's
    function costs several times a small H's Cholesky factorization."""
    return H.shape == H.T.shape and all(
        a == b or (abs(a - b) <= 1e-10 + 1e-5 * abs(b) and math.isfinite(b))
        for a, b in zip(H.ravel().tolist(), H.T.ravel().tolist()))


@dataclass(frozen=True)
class QpSolution:
    z_star: np.ndarray | None
    active_set: tuple[int, ...]
    multipliers: np.ndarray
    status: str  # "optimal" or "infeasible"


def _feasible_start(G: np.ndarray, w: np.ndarray) -> np.ndarray | None:
    """The origin when it meets every row, else a phase-1 LP's point; None
    when there is none."""
    n = G.shape[1]
    if np.all(w >= -FEAS_TOL):
        return np.zeros(n)
    res = linprog(np.zeros(n), A_ub=G, b_ub=w, bounds=[(None, None)] * n,
                  method="highs")
    return res.x if res.success else None


def solve_qp(qp: DenseQp) -> QpSolution:
    """Solve the QP; H must be positive definite.

    Rows of G that are (numerically) zero cannot become active: they are
    either trivially satisfied or make the problem infeasible outright.
    An unconstrained minimizer that meets every other row is returned at
    once, with no active row.  Otherwise the loop starts at the origin, or
    at a phase-1 LP's point when the origin is infeasible.  A working set
    of n rows admits no step, so there the loop reads the multipliers
    alone: with large multipliers, the step the KKT solve returns can be
    rounding noise above the step tolerance.
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

    z_free = -np.linalg.solve(H, f)
    if np.all(Gi @ z_free <= wi + FEAS_TOL):
        return QpSolution(z_free, (), np.zeros(0), "optimal")
    z = _feasible_start(Gi, wi)
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

        if len(work) == n or np.linalg.norm(p) <= 1e-11:
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


def chebyshev_centers(polys, *, counts: Counter | None = None,
                      ) -> list[tuple[np.ndarray, float] | None]:
    """Largest inscribed ball of each polyhedron {z: Gz <= w} in polys, a
    list of (G, w), from one linprog over the block-diagonal stack of their
    Chebyshev LPs; None for an empty polyhedron.

    The radius is capped and z is boxed (_CHEBYSHEV_BOX) so each block
    stays bounded for unbounded polyhedra.  The radius is free below, so
    every block is feasible and an empty polyhedron cannot make the stack
    infeasible: its largest radius is negative.  A zero row of G with w < 0
    shows emptiness without an LP, and a polyhedron with no other rows is
    all of space, centered at the origin.  ``counts``, when given, tallies
    chebyshev_lps (polyhedra) and chebyshev_lp_calls (linprog calls).
    """
    out: list[tuple[np.ndarray, float] | None] = []
    blocks, b, solve = [], [], []
    for G, w in polys:
        G = np.atleast_2d(np.asarray(G, float))
        w = np.asarray(w, float)
        norms = np.linalg.norm(G, axis=1)
        keep = norms > ZERO_ROW_TOL
        out.append(None if np.any(w[~keep] < 0)
                   else (np.zeros(G.shape[1]), _CHEBYSHEV_BOX))
        if out[-1] is not None and keep.any():
            blocks.append(np.hstack([G[keep], norms[keep, None]]))
            b.append(w[keep])
            solve.append(len(out) - 1)
    if counts is not None:
        counts["chebyshev_lps"] += len(out)
        counts["chebyshev_lp_calls"] += bool(blocks)
    if not blocks:
        return out
    from scipy.sparse import block_diag
    ends = np.cumsum([a.shape[1] for a in blocks])
    c = np.zeros(ends[-1])
    c[ends - 1] = -1.0
    bounds = [(-_CHEBYSHEV_BOX, _CHEBYSHEV_BOX)] * ends[-1]
    for k in ends:
        bounds[k - 1] = (None, _CHEBYSHEV_BOX)
    res = linprog(c, A_ub=block_diag(blocks, format="csr"),
                  b_ub=np.concatenate(b), bounds=bounds, method="highs")
    if not res.success:  # every block is feasible and bounded
        raise QpError(f"stacked Chebyshev LP: {res.message}")
    for k, x in zip(solve, np.split(res.x, ends[:-1])):
        out[k] = (x[:-1], float(x[-1])) if x[-1] >= 0 else None
    return out


def chebyshev_center(G: np.ndarray, w: np.ndarray,
                     ) -> tuple[np.ndarray, float] | None:
    """Largest inscribed ball of {z: Gz <= w}; None when empty (see
    chebyshev_centers)."""
    return chebyshev_centers([(G, w)])[0]


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


def _distinct_rows(G: np.ndarray, w: np.ndarray) -> list[int]:
    """The nonzero rows of {Gz <= w} in row order, less each row that an
    earlier kept row duplicates: the same normalized row with the same or a
    tighter bound."""
    norms = np.linalg.norm(G, axis=1)
    rows = np.flatnonzero(norms > ZERO_ROW_TOL)
    unit, bound = G[rows] / norms[rows, None], w[rows] / norms[rows]
    # dup[i, j]: row j, when kept, makes row i a duplicate
    dup = ((np.linalg.norm(unit[:, None] - unit[None], axis=2) < 1e-12)
           & (bound[None, :] <= bound[:, None] + 1e-12))
    keep = np.zeros(len(rows), dtype=bool)
    for i in range(len(rows)):
        keep[i] = not np.any(dup[i, :i] & keep[:i])
    return rows[keep].tolist()


def remove_redundant(G: np.ndarray, w: np.ndarray, center: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Minimal representation of the polytope {Gz <= w} as (G, w, kept
    rows), the kept rows in row order.

    Preconditions: the polytope is bounded, its dimension is at least 2
    and ``center`` lies strictly inside it, such as its Chebyshev center.
    A center on the boundary or outside raises QpError, as does any other
    fault qhull reports.

    Exact duplicates go first (_distinct_rows: the earliest of equal rows
    stays, qhull having no rule for them).  Qhull's halfspace intersection
    around ``center`` then gives the facets of what is left: a row is kept
    when it is a vertex of the dual hull.  These are the rows that one LP
    per row keeps, in row order, each row being redundant when its maximum
    over the rows kept so far stays within 1e-9 of its bound, with one
    difference: a row that cuts the polytope by less than 1e-9, such as a
    vertex shaved that thinly, is a facet to qhull and is kept, while that
    LP's tolerance drops it.
    """
    from scipy.spatial import HalfspaceIntersection, QhullError
    G = np.atleast_2d(np.asarray(G, float))
    w = np.asarray(w, float)
    rows = np.array(_distinct_rows(G, w))
    try:
        hs = HalfspaceIntersection(np.hstack([G[rows], -w[rows, None]]),
                                   np.asarray(center, float))
    except QhullError as exc:
        raise QpError(f"halfspace intersection: {exc}") from exc
    kept = sorted(rows[hs.dual_vertices].tolist())
    return G[kept], w[kept], kept
