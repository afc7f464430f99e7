"""Dense small-scale convex QP solver and polyhedral LP utilities.

The QP solver is a primal active-set method: it tracks a working set of
constraints treated as equalities, moves along equality-constrained Newton
steps, and adds/removes constraints with deterministic lowest-index
tie-breaking.  Problems here are tiny (a handful of variables, a few dozen
rows), so dense factorizations are fine.  At that size numpy's fixed cost
per call outweighs the arithmetic, so ``DenseQp`` checks symmetry on
Python floats with np.allclose's rule.

One KKT solve (``_kkt``) and one rank rule (``independent_rows``) serve
every working set, here and in the explorer's law for an active set, the
same KKT system with theta's columns as right-hand sides.  A working set,
like a stored active set, names rows of G in G's own numbering, and a
zero row never enters one.  ``solve_qp`` has one early exit: the KKT
point of no row, then of a guess of the active set such as the last QP's
(the online active-set strategy of Ferreau, Bock & Diehl, IJRNC 2008),
is returned when optimal, with no phase-1 LP.

LP subproblems (phase-1 feasibility, Chebyshev centers) go through scipy's
HiGHS linprog.  A call this small costs several times more in scipy's input
handling than in HiGHS, so ``chebyshev_centers`` stacks the Chebyshev LPs
of many polytopes block-diagonally into one call; ``chebyshev_center`` is
its one-element call.  Redundancy removal makes no LP: ``remove_redundant``
reads a polytope's facets from qhull's halfspace intersection (Barber,
Dobkin & Huhdanpaa, ACM TOMS 1996) around an interior point.  Only
HiGHS's infeasible status makes a QP "infeasible": a phase-1 LP that
fails any other way raises QpError.

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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DenseQp",
    "QpSolution",
    "QpError",
    "solve_qp",
    "independent_rows",
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
    phase1_lps: int  # the phase-1 LPs the solve made, 0 or 1


def _feasible_start(G: np.ndarray, w: np.ndarray,
                    ) -> tuple[np.ndarray | None, int]:
    """(point, phase-1 LPs made): the origin and 0 when it meets every
    row, else a phase-1 LP's point and 1, the point None when HiGHS finds
    the rows infeasible.  QpError on any other failure."""
    n = G.shape[1]
    if np.all(w >= -FEAS_TOL):
        return np.zeros(n), 0
    res = linprog(np.zeros(n), A_ub=G, b_ub=w, bounds=[(None, None)] * n,
                  method="highs")
    if res.status == 2:
        return None, 1
    if not res.success:
        raise QpError(f"phase-1 LP: {res.message}")
    return res.x, 1


def _kkt(H: np.ndarray, A: np.ndarray, g: np.ndarray, b: np.ndarray,
         ) -> tuple[np.ndarray, np.ndarray]:
    """(x, lam) with H x + A' lam = g and A x = b, g and b vectors or
    matrices of columns; LinAlgError when the system is singular, which it
    is not for H positive definite and independent_rows A."""
    n = H.shape[0]
    if not len(A):  # H alone, without the set-up of a bordered matrix
        return np.linalg.solve(H, g), b
    K = np.zeros((n + len(A),) * 2)
    K[:n, :n], K[:n, n:], K[n:, :n] = H, A.T, A
    sol = np.linalg.solve(K, np.concatenate([g, b]))
    return sol[:n], sol[n:]


def independent_rows(A: np.ndarray) -> bool:
    """Whether the rows of A make a working set: at most n of them, with
    the smallest singular value above 1e-10 times the largest, that is a
    condition number at most 1e10.  A zero row is dependent.  The one rank
    rule of the QP's guesses and the explorer's candidate active sets."""
    if len(A) > A.shape[1]:
        return False
    if len(A) < 2:  # one row's singular value is its norm
        return all(map(any, A.tolist()))
    s = np.linalg.svd(A, compute_uv=False)
    return bool(s[-1] > 1e-10 * s[0])


def _optimal(z: np.ndarray, work: list[int], lam: np.ndarray, lps: int,
             ) -> QpSolution:
    order = np.argsort(work)
    act = tuple(int(work[i]) for i in order)
    return QpSolution(z, act, np.maximum(lam[order], 0.0), "optimal", lps)


def solve_qp(qp: DenseQp, guess: tuple[int, ...] = ()) -> QpSolution:
    """Solve the QP; H must be positive definite.

    Working sets, the guess and the returned active set are rows of G.
    Rows of G that are (numerically) zero never enter a working set: they
    are either trivially satisfied or make the problem infeasible outright.
    One early-exit check then tries up to two working sets in turn: no
    row, then the guess, rows of G thought active at the optimum (such as
    the active set of a nearby QP), when they are nonzero rows that pass
    the rank rule (independent_rows).  The KKT point of a working set that
    meets every row with multipliers >= -MULT_TOL passes the test the loop
    ends on and is returned at once; one that meets every row with a
    negative multiplier starts the loop, with that working set.  H is
    positive definite, so the optimum is unique, and a guess changes how
    it is found, never which.  When neither point meets every row, the
    loop starts cold, at the origin, or at a phase-1 LP's point over the
    nonzero rows when the origin is infeasible.  A working set of n rows
    admits no step, so there the loop reads the multipliers alone: with
    large multipliers, the step the KKT solve returns can be rounding
    noise above the step tolerance.
    """
    H, f, w = qp.H, np.asarray(qp.f, float), np.asarray(qp.w, float)
    n = H.shape[0]
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise QpError("H is not positive definite") from exc
    G = np.asarray(qp.G, float).reshape(-1, n)

    zero = np.linalg.norm(G, axis=1) <= ZERO_ROW_TOL
    if np.any(w[zero] < -FEAS_TOL):
        return QpSolution(None, (), np.zeros(0), "infeasible", 0)

    ok = guess and all(0 <= i < len(G) and not zero[i] for i in guess)
    guessed = list(guess) if ok and independent_rows(G[list(guess)]) else []
    lps = 0
    for work in [[], guessed] if guessed else [[]]:
        z, lam = _kkt(H, G[work], -f, w[work])
        if np.all((G @ z <= w + FEAS_TOL) | zero):
            if lam.min(initial=0.0) >= -MULT_TOL:
                return _optimal(z, work, lam, lps)
            break
    else:
        work, (z, lps) = [], _feasible_start(G[~zero], w[~zero])
        if z is None:
            return QpSolution(None, (), np.zeros(0), "infeasible", lps)

    for _ in range(200 + 20 * len(G)):
        # equality-constrained Newton step on the working set
        try:
            p, lam = _kkt(H, G[work], -(H @ z + f), np.zeros(len(work)))
        except np.linalg.LinAlgError as exc:
            raise QpError("singular KKT system") from exc

        if len(work) == n or np.linalg.norm(p) <= 1e-11:
            if lam.min(initial=0.0) >= -MULT_TOL:
                return _optimal(z, work, lam, lps)
            # drop the most negative multiplier, lowest index on ties
            work.pop(min(range(len(work)), key=lambda i: (lam[i], work[i])))
            continue

        # ratio test over the nonzero rows not in the working set
        alpha, blocker = 1.0, None
        gp = G @ p
        slack = w - G @ z
        for i in range(len(G)):
            if i in work or zero[i] or gp[i] <= 1e-12:
                continue
            a = slack[i] / gp[i]
            if a < alpha - 1e-12:
                alpha, blocker = a, i
        z = z + max(alpha, 0.0) * p
        if blocker is not None:
            work.append(blocker)
    raise QpError("active-set iteration limit exceeded")


def chebyshev_centers(polys) -> list[tuple[np.ndarray, float] | None]:
    """Largest inscribed ball of each polyhedron {z: Gz <= w} in polys, a
    list of (G, w), from one linprog over the block-diagonal stack of their
    Chebyshev LPs; None for an empty polyhedron.

    The radius is capped and z is boxed (_CHEBYSHEV_BOX) so each block
    stays bounded for unbounded polyhedra.  The radius is free below, so
    every block is feasible and an empty polyhedron cannot make the stack
    infeasible: its largest radius is negative.  A zero row of G with w < 0
    shows emptiness without an LP, and a polyhedron with no other rows is
    all of space, centered at the origin.
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
    except QhullError as exc:  # its first line names the fault; the rest
        # is qhull's option dump, with a run id that changes every call
        raise QpError("halfspace intersection: "
                      + str(exc).partition("\n")[0]) from exc
    # the dual hull's vertices, from its facets: dual_vertices fails when a
    # facet has more than n vertices (more than n facets meet at a vertex)
    kept = rows[sorted({i for f in hs.dual_facets for i in f})].tolist()
    return G[kept], w[kept], kept
