"""Offline explicit solution of the parametric QP and online point location.

For a fixed optimal active set A the KKT conditions are linear in theta, so
the optimizer is affine, z*(theta) = K theta + g, valid on the polyhedral
critical region where the multipliers stay nonnegative and the inactive
constraints stay satisfied.  Exploration enumerates the candidate active
sets combinatorially and keeps those whose critical region has a nonempty
interior.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .mpqp import I_MAX, I_MIN, MpqpProblem, THETA_DIM
from .qp import (ZERO_ROW_TOL, _CHEBYSHEV_BOX, chebyshev_centers, linprog,
                 remove_redundant, solve_qp)
# not called here; perfbench/layers.py wraps this name in this module
from .qp import chebyshev_center  # noqa: F401

__all__ = [
    "CriticalRegion",
    "ExplicitSolution",
    "DEFAULT_THETA_BOX",
    "DegenerateActiveSet",
    "region_for",
    "explore",
    "locate",
    "coverage_check",
    "export_table",
    "rounded",
    "import_table",
]

# rows: Vb, Vs, I, r, u_prev; a move u_prev spans the current range
DEFAULT_THETA_BOX = np.array([
    [0.0, 1.0],
    [0.0, 1.0],
    [I_MIN, I_MAX],
    [0.2, 1.0],
    [I_MIN - I_MAX, I_MAX - I_MIN],
])

_MIN_RADIUS = 1e-9


class DegenerateActiveSet(Exception):
    pass


@dataclass(frozen=True)
class CriticalRegion:
    E: np.ndarray            # p x 5, region {theta: E theta <= e}
    e: np.ndarray
    K: np.ndarray            # Nu x 5
    g: np.ndarray            # Nu
    active_set: tuple[int, ...]

    def stored_reals(self) -> int:
        return self.E.size + self.e.size + self.K.size + self.g.size


@dataclass
class ExplicitSolution:
    regions: tuple[CriticalRegion, ...]
    segment_index: int
    theta_box: np.ndarray
    Nu: int
    # membership slack used by locate(); tables stored with rounded
    # entries carry a matching coarser tolerance so that points on a
    # (shifted) facet still land in an adjacent region
    locate_tol: float = 1e-9
    stats: dict = field(default_factory=dict)  # explore's counters

    def __post_init__(self) -> None:
        # locate() reads the regions' rows stacked, short regions padded
        # with rows 0 <= inf; a tuple keeps the stack from going stale
        self.regions = tuple(self.regions)
        n_rows = max([1] + [len(r.e) for r in self.regions])
        self._E = np.zeros((len(self.regions), n_rows, THETA_DIM))
        self._e = np.full((len(self.regions), n_rows), np.inf)
        for k, r in enumerate(self.regions):
            self._E[k, :len(r.e)], self._e[k, :len(r.e)] = r.E, r.e

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def stored_reals(self) -> int:
        return sum(r.stored_reals() for r in self.regions)


def box_halfspaces(theta_box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = theta_box.shape[0]
    G = np.vstack([np.eye(n), -np.eye(n)])
    w = np.concatenate([theta_box[:, 1], -theta_box[:, 0]])
    return G, w


def law_for_active_set(problem: MpqpProblem, active_set,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray]:
    """Affine optimizer and multipliers for a candidate active set.

    Returns (K, g, Lam, lam_c) with z*(theta) = K theta + g and
    lambda(theta) = Lam theta + lam_c for the active rows.
    """
    Sig, F = problem.Sigma, problem.F
    Sig_inv = np.linalg.inv(Sig)
    A = list(active_set)
    if not A:
        return -Sig_inv @ F, np.zeros(Sig.shape[0]), \
            np.zeros((0, THETA_DIM)), np.zeros(0)
    GA = problem.G[A]
    SA = problem.S[A]
    WA = problem.W[A]
    M = GA @ Sig_inv @ GA.T
    # the one rank test: a singular M has cond inf or ~1e16, never a warning
    if np.linalg.cond(M) > 1e10:
        raise DegenerateActiveSet(str(active_set))
    M_inv = np.linalg.inv(M)
    Lam = -M_inv @ (SA + GA @ Sig_inv @ F)
    lam_c = -M_inv @ WA
    K = -Sig_inv @ (F + GA.T @ Lam)
    g = -Sig_inv @ GA.T @ lam_c
    return K, g, Lam, lam_c


def _unreduced(problem: MpqpProblem, active_set: tuple[int, ...],
               theta_box: np.ndarray) -> tuple[np.ndarray, ...]:
    """Law and unreduced region (K, g, E, e) of an active set, the region
    being {theta: E theta <= e}; DegenerateActiveSet when the active rows
    are linearly dependent."""
    K, g, Lam, lam_c = law_for_active_set(problem, active_set)
    # multipliers stay nonnegative, -(Lam theta) <= lam_c, and inactive
    # rows stay satisfied, (G K - S) theta <= W - G g; zero rows of G
    # depend on theta only and carve the feasible parameter set itself
    inactive = [i for i in range(problem.G.shape[0]) if i not in active_set]
    Gb, wb = box_halfspaces(theta_box)
    E = np.vstack([-Lam, problem.G[inactive] @ K - problem.S[inactive], Gb])
    e = np.concatenate([lam_c, problem.W[inactive] - problem.G[inactive] @ g,
                        wb])
    return K, g, E, e


def _critical_regions(laws, counts: Counter) -> list[CriticalRegion]:
    """The critical regions, in order, of the laws (active set, K, g, E, e)
    whose region has an interior: one stacked Chebyshev LP over all of
    them, then remove_redundant on each region kept, from its center."""
    balls = chebyshev_centers([(E, e) for *_, E, e in laws], counts=counts)
    out = []
    for (A, K, g, E, e), ball in zip(laws, balls):
        if ball is not None and ball[1] > _MIN_RADIUS:
            E, e, _ = remove_redundant(E, e, ball[0])
            out.append(CriticalRegion(E=E, e=e, K=K, g=g, active_set=A))
    return out


def region_for(problem: MpqpProblem, theta0: np.ndarray,
               theta_box: np.ndarray | None = None) -> CriticalRegion:
    """Build the critical region around theta0 from the QP's active set;
    ValueError when the QP is infeasible at theta0."""
    theta_box = DEFAULT_THETA_BOX if theta_box is None else theta_box
    sol = solve_qp(problem.qp(theta0))
    if sol.status != "optimal":
        raise ValueError(f"QP {sol.status} at theta0 {theta0}")
    law = (sol.active_set,
           *_unreduced(problem, sol.active_set, theta_box))
    regions = _critical_regions([law], Counter())
    if not regions:
        raise DegenerateActiveSet(f"region around {theta0} has no interior")
    return regions[0]


def _facet_center(E: np.ndarray, e: np.ndarray, i: int,
                  ) -> np.ndarray | None:
    """Chebyshev center of facet i (largest ball within the facet)."""
    n = E.shape[1]
    rows = [j for j in range(E.shape[0]) if j != i]
    norms = np.linalg.norm(E[rows], axis=1)
    A_ub = np.hstack([E[rows], norms[:, None]])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=A_ub, b_ub=e[rows],
                  A_eq=np.hstack([E[i:i + 1], [[0.0]]]), b_eq=[e[i]],
                  bounds=[(-_CHEBYSHEV_BOX, _CHEBYSHEV_BOX)] * n
                  + [(0.0, _CHEBYSHEV_BOX)], method="highs")
    if not res.success or res.x[n] <= 1e-10:
        return None
    return res.x[:n]


def explore(problem: MpqpProblem, theta_box: np.ndarray | None = None,
            seed: int = 0) -> ExplicitSolution:
    """Every critical region with a nonempty interior in theta_box.

    Each set of at most Nu nonzero rows of G is a candidate active set.
    Linearly dependent rows (a singular or ill-conditioned law_for_active_set
    system) prune it without an LP.  One stacked Chebyshev LP per segment,
    not per candidate, then finds every remaining candidate's region empty
    or gives a point strictly inside it, and ``remove_redundant`` reduces
    each kept region from that point without an LP.  ``stats`` counts the
    candidates, split into pruned_rank, empty_interior and the regions, and
    the chebyshev_lps (one per candidate that passes the rank test) and
    chebyshev_lp_calls.  ``seed`` is unused and kept for existing callers.
    """
    theta_box = DEFAULT_THETA_BOX if theta_box is None else theta_box
    Nu = problem.Sigma.shape[0]
    rows = np.flatnonzero(
        np.linalg.norm(problem.G, axis=1) > ZERO_ROW_TOL).tolist()
    counts = Counter(candidates=0, pruned_rank=0, empty_interior=0,
                     chebyshev_lps=0, chebyshev_lp_calls=0)
    laws = []
    for size in range(min(Nu, len(rows)) + 1):
        for A in combinations(rows, size):
            counts["candidates"] += 1
            try:
                laws.append((A, *_unreduced(problem, A, theta_box)))
            except DegenerateActiveSet:
                counts["pruned_rank"] += 1
    regions = _critical_regions(laws, counts)
    counts["empty_interior"] = len(laws) - len(regions)
    return ExplicitSolution(regions, problem.segment_index, theta_box, Nu,
                            stats=dict(counts))


def locate(solution: ExplicitSolution, theta: np.ndarray) -> int | None:
    """Index of the region whose largest violation at theta is smallest,
    None when it exceeds the table's locate_tol.  The answer does not
    depend on region order: a tie goes to the smaller first move, as in the
    segment-switch guard.
    """
    worst = (solution._E @ theta - solution._e).max(axis=1)
    best = worst.min(initial=np.inf)
    if not best <= solution.locate_tol:
        return None
    regs = solution.regions
    return int(min(np.flatnonzero(worst == best),
                   key=lambda k: regs[k].K[0] @ theta + regs[k].g[0]))


def coverage_check(solution: ExplicitSolution, problem: MpqpProblem,
                   n_samples: int, seed: int) -> float:
    """Fraction of random feasible theta in the box covered by some region,
    within the table's locate_tol.

    Sampling is vectorized over the stacked region halfspaces.  A miss may
    simply be an infeasible parameter: misses that break a theta-only row
    (a zero row of G) are dropped at once, the rest are feasible when the
    QP's feasible set there has an interior (Chebyshev radius above
    1e-12), found for all of them by one stacked LP.
    """
    rng = np.random.default_rng(seed)
    box = solution.theta_box
    thetas = rng.uniform(box[:, 0], box[:, 1], size=(n_samples, THETA_DIM))
    covered = np.zeros(n_samples, dtype=bool)
    for r in solution.regions:
        covered |= np.all(thetas @ r.E.T <= r.e + solution.locate_tol,
                          axis=1)
    n_covered = int(covered.sum())
    rhs = thetas[~covered] @ problem.S.T + problem.W
    # chebyshev_centers' zero-row rule, vectorized over the misses, not a
    # duplicate of it: on the 9 default segments it rejects all 3728
    # misses of each, so none reaches the LP.  Without it the loop there
    # takes one Python iteration per miss, and coverage of the 9 took
    # 0.059 s -> 0.587 s (1 BLAS thread, best of 5), with the same values
    zero = np.linalg.norm(problem.G, axis=1) <= ZERO_ROW_TOL
    rhs = rhs[np.all(rhs[:, zero] >= 0, axis=1)]
    balls = chebyshev_centers([(problem.G, w) for w in rhs])
    n_feas_missed = sum(b is not None and b[1] > 1e-12 for b in balls)
    total = n_covered + n_feas_missed
    return 1.0 if total == 0 else n_covered / total


# ---------------------------------------------------------------------------
# persistence

# Both encodings store the same fields.  Binary, little-endian: _MAGIC;
# _HEADER (segment_index, Nu, theta_dim, n_regions, locate_tol); theta_box
# as THETA_DIM x 2 float64; per region a _RECORD (rows p, active-set size),
# the active set as int32 and the _ARRAYS as float64 in C order.  Nothing
# follows the last region.
_MAGIC = b"EMPCTB01"
_HEADER = struct.Struct("<iiiid")
_RECORD = struct.Struct("<ii")
_ARRAYS = ("E", "e", "K", "g")


def _shapes(p: int, Nu: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of the _ARRAYS of a region with p rows."""
    return (p, THETA_DIM), (p,), (Nu, THETA_DIM), (Nu,)


def _round(a: np.ndarray, decimals: int) -> np.ndarray:
    """a rounded to decimals.  An entry whose rounding overflows (|a| times
    10**decimals past the float range) is kept: a float has no digits that
    far right of the point, so it is its own rounding."""
    with np.errstate(over="ignore"):
        r = np.round(a, decimals)
    return np.where(np.isfinite(r), r, a)


def rounded(solution: ExplicitSolution, decimals: int | None,
            ) -> ExplicitSolution:
    """Copy of a solution with entries rounded to the given decimals and a
    matching locate tolerance; decimals=None returns the input unchanged."""
    if decimals is None:
        return solution
    regs = [CriticalRegion(**{k: _round(getattr(r, k), decimals)
                              for k in _ARRAYS}, active_set=r.active_set)
            for r in solution.regions]
    # worst-case facet shift: |dE . theta| + |de| over the theta box
    span = np.abs(solution.theta_box).max(axis=1).sum()
    tol = 0.5 * 10.0 ** (-decimals) * (span + 1.0)
    return ExplicitSolution(regions=regs,
                            segment_index=solution.segment_index,
                            theta_box=solution.theta_box, Nu=solution.Nu,
                            locate_tol=max(solution.locate_tol, tol),
                            stats=solution.stats)


def _atomic_write(path, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def export_table(sol: ExplicitSolution, path, fmt: str = "json") -> None:
    """Persist a region table; fmt is "json" or "bin".

    Round-tripping through either format reproduces the table bit-exactly
    (floats go through repr in JSON, raw IEEE754 in binary).
    """
    if fmt == "json":
        doc = {"format": "empc-table", "version": 1,
               "segment_index": sol.segment_index, "Nu": sol.Nu,
               "theta_dim": THETA_DIM, "locate_tol": sol.locate_tol,
               "theta_box": sol.theta_box.tolist(),
               "regions": [{**{k: getattr(r, k).tolist() for k in _ARRAYS},
                            "active_set": list(r.active_set)}
                           for r in sol.regions]}
        data = json.dumps(doc, indent=1).encode()
    elif fmt == "bin":
        parts = [_MAGIC, _HEADER.pack(sol.segment_index, sol.Nu, THETA_DIM,
                                      len(sol.regions), sol.locate_tol),
                 sol.theta_box.astype("<f8").tobytes()]
        for r in sol.regions:
            parts += [_RECORD.pack(len(r.e), len(r.active_set)),
                      np.asarray(r.active_set, "<i4").tobytes()]
            parts += [getattr(r, k).astype("<f8").tobytes() for k in _ARRAYS]
        data = b"".join(parts)
    else:
        raise ValueError(f"unknown table format: {fmt}")
    _atomic_write(path, data)


def _integer(v):
    """v when JSON spelled it as an integer: not a float, not a bool."""
    if type(v) is not int:
        raise ValueError(f"{v!r} is not an integer")
    return v


def import_table(path) -> ExplicitSolution:
    """The region table at path, in either encoding: OSError when the file
    cannot be read, ValueError naming the path for any other fault, a
    non-finite number, a negative count or locate_tol, a count, index or
    active-set row that JSON does not spell as an integer, and an active
    set with a repeated or negative row or more than Nu rows included."""
    with open(path, "rb") as f:
        raw = f.read()
    pos = len(_MAGIC)

    def take(n: int) -> bytes:
        """The next n bytes of a binary table."""
        nonlocal pos
        if not 0 <= n <= len(raw) - pos:
            raise ValueError(f"{n} bytes wanted at offset {pos} of {len(raw)}")
        pos += n
        return raw[pos - n:pos]

    try:
        if raw.startswith(_MAGIC):
            seg, Nu, tdim, n_regions, tol = _HEADER.unpack(take(_HEADER.size))
            box = np.frombuffer(take(16 * THETA_DIM), "<f8")
            records = []
            for _ in range(n_regions):
                p, n_active = _RECORD.unpack(take(_RECORD.size))
                active = np.frombuffer(take(4 * n_active), "<i4")
                records.append(([np.frombuffer(take(8 * math.prod(s)), "<f8")
                                 for s in _shapes(p, Nu)], active))
            if pos != len(raw):
                raise ValueError(f"{len(raw) - pos} trailing bytes")
        else:
            doc = json.loads(raw)
            if not (isinstance(doc, dict) and doc.get("version") == 1
                    and doc.get("format") == "empc-table"):
                raise ValueError("not a version-1 region table")
            seg, Nu, tdim = (_integer(doc[k]) for k in (
                "segment_index", "Nu", "theta_dim"))
            tol, box = doc["locate_tol"], doc["theta_box"]
            records = [([r[k] for k in _ARRAYS],
                        [_integer(i) for i in r["active_set"]])
                       for r in doc["regions"]]
            n_regions = len(records)
        if tdim != THETA_DIM:
            raise ValueError(f"theta_dim {tdim}, expected {THETA_DIM}")
        if min(Nu, n_regions) < 0:
            raise ValueError(f"negative count: Nu {Nu}, {n_regions} regions")
        for _, active in records:
            if (len(set(active)) < len(active) or len(active) > Nu
                    or min(active, default=0) < 0):
                raise ValueError(f"active set {list(active)}: rows must be "
                                 f"distinct, >= 0 and at most Nu={Nu}")
        regions = [CriticalRegion(
            **{k: np.array(a, float).reshape(s) for k, a, s
               in zip(_ARRAYS, arrays, _shapes(len(arrays[1]), Nu))},
            active_set=tuple(int(i) for i in active))
            for arrays, active in records]
        box, tol = np.array(box, float).reshape(THETA_DIM, 2), float(tol)
        arrays = [box, *(getattr(r, k) for r in regions for k in _ARRAYS)]
        if not (0 <= tol < math.inf
                and all(np.isfinite(a).all() for a in arrays)):
            raise ValueError("a non-finite number or a negative locate_tol")
        return ExplicitSolution(regions, seg, box, Nu, tol)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed region table: {exc!r}") from exc
