"""Dense small-scale convex QP solver and polyhedral LP utilities.

The QP solver is a primal active-set method: it tracks a working set of
constraints treated as equalities, moves along equality-constrained Newton
steps, and adds/removes constraints with deterministic lowest-index
tie-breaking.  Problems here are tiny (a handful of variables, a few dozen
rows), so dense factorizations are fine.

LP subproblems (phase-1 feasibility, Chebyshev centers, redundancy removal)
go through scipy's HiGHS linprog.  A call this small costs several times
more in scipy's input handling than in HiGHS, so the LPs of many polytopes
are stacked block-diagonally into one call: ``chebyshev_centers`` finds
every polytope's center with one call, and ``remove_redundant_many`` tests
every open row of every polytope with one call, confirms the rows it flags
redundant with a second, and falls back to one LP per row, in row order,
only for what the two leave open; the kept rows are those of the row-by-row
order.  The one-polytope forms are the one-element calls.
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
    "chebyshev_centers",
    "chebyshev_center",
    "remove_redundant_many",
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


def _redundant_rows(tests, counts: Counter) -> np.ndarray | None:
    """For each test (G, w, i, against), whether row i of {Gz <= w} is
    redundant given the rows in against (i itself left out), from one
    linprog over the block-diagonal stack of their LPs, max G_i z subject
    to those rows and the cap row G_i z <= w_i + 1; None when HiGHS does
    not report success.  Each maximum is G_i z, read from its own block of
    x: res.fun is only their sum."""
    blocks, b = [], []
    for G, w, i, against in tests:
        others = [j for j in against if j != i]
        blocks.append(np.vstack([G[others], G[i:i + 1]]))
        b += [w[others], [w[i] + 1.0]]
    res = linprog(-np.concatenate([G[i] for G, _, i, _ in tests]),
                  A_ub=block_diag(blocks, format="csr"),
                  b_ub=np.concatenate(b), bounds=(None, None),
                  method="highs")
    counts["redundancy_lps"] += len(tests)
    counts["redundancy_lp_calls"] += 1
    if not res.success:
        return None
    ends = np.cumsum([G.shape[1] for G, *_ in tests])
    return np.array([G[i] @ x <= w[i] + _REDUNDANT_TOL for (G, w, i, _), x
                     in zip(tests, np.split(res.x, ends[:-1]))])


def remove_redundant_many(polys, centers, *, counts: Counter | None = None,
                          ) -> list[tuple[np.ndarray, np.ndarray, list[int]]]:
    """Minimal representation of each nonempty polyhedron {Gz <= w} in
    polys, a list of (G, w), as (G, w, kept rows).

    Row i is redundant when max G_i z over the remaining rows stays at or
    below w_i.  The max LP adds the row G_i z <= w_i + 1 so it is bounded
    even for unbounded polyhedra.  Rows that a ray from the polyhedron's
    entry of ``centers``, a point of it such as its Chebyshev center, proves
    to be facets skip that LP; the kept rows are the same.  A center outside
    the polyhedron certifies nothing.

    The kept rows are those of one LP per row, in row order, each over the
    rows still kept, dropping a row as soon as it is found redundant.  A
    linprog call this small spends most of its time in scipy, not in
    HiGHS, so the LPs of every polyhedron are stacked instead:

    1. One stacked solve tests every uncertified row against all other
       rows of its polyhedron.  A row found non-redundant is kept: its
       row-order LP has a subset of these constraints, so its maximum is
       no smaller.
    2. Rows flagged redundant, in each polyhedron with two or more, are
       tested again by one second stacked solve against the unflagged rows
       only.  Each row-order LP has at least those constraints, so a row
       confirmed here is redundant there too; when all of a polyhedron's
       are confirmed, all go.  A lone flagged row saw exactly its
       row-order LP in step 1.
    3. What the stacked solves leave open in a polyhedron, a flagged row
       not confirmed (two near-duplicate rows of one facet flag each
       other) or a solve without success, is settled by the row-order LPs
       over its flagged rows alone, the unflagged rows being kept either
       way.

    ``counts``, when given, tallies redundancy_lps (row LPs solved, blocks
    of a stacked solve included), redundancy_lp_calls (linprog calls),
    redundancy_sequential_rows (rows settled in step 3) and
    certified_rows.
    """
    counts = Counter() if counts is None else counts
    polys = [(np.atleast_2d(np.asarray(G, float)), np.asarray(w, float))
             for G, w in polys]
    kept, flagged = [], []
    for (G, w), center in zip(polys, centers):
        rows = _distinct_rows(G, w)
        ray = _ray_facets(G[rows], w[rows], center)
        counts["certified_rows"] += int(ray.sum())
        kept.append(rows)
        flagged.append([i for i, r in zip(rows, ray) if not r])

    tests = [(k, i) for k, rows in enumerate(flagged) for i in rows]
    red = _redundant_rows([(*polys[k], i, kept[k]) for k, i in tests],
                          counts) if tests else None
    if red is not None:
        flagged = [[] for _ in polys]
        for (k, i), r in zip(tests, red):
            if r:
                flagged[k].append(i)
        rest = [[i for i in rows if i not in out]
                for rows, out in zip(kept, flagged)]
        tests = [(k, i) for k, rows in enumerate(flagged) if len(rows) > 1
                 for i in rows]
        red = _redundant_rows([(*polys[k], i, rest[k]) for k, i in tests],
                              counts) if tests else None
        unsettled = ({k for k, _ in tests} if red is None
                     else {k for (k, _), r in zip(tests, red) if not r})
        for k in set(range(len(polys))) - unsettled:
            kept[k], flagged[k] = rest[k], []

    for k, rows in enumerate(flagged):
        counts["redundancy_sequential_rows"] += len(rows)
        for i in rows:
            red = _redundant_rows([(*polys[k], i, kept[k])], counts)
            if red is not None and red[0]:
                kept[k].remove(i)
    return [(G[rows], w[rows], rows) for (G, w), rows in zip(polys, kept)]


def remove_redundant(G: np.ndarray, w: np.ndarray, center: np.ndarray,
                     *, counts: Counter | None = None,
                     ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Minimal representation of a nonempty polyhedron {Gz <= w}: the
    one-polyhedron call of remove_redundant_many."""
    return remove_redundant_many([(G, w)], [center], counts=counts)[0]
