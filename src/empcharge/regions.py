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
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .mpqp import I_MAX, I_MIN, MpqpProblem, THETA_DIM
from .qp import (ZERO_ROW_TOL, _kkt, chebyshev_centers, independent_rows,
                 remove_redundant, solve_qp)
# not called here; perfbench/layers.py wraps these names in this module
from .qp import chebyshev_center, linprog  # noqa: F401

__all__ = [
    "CriticalRegion",
    "ExplicitSolution",
    "DEFAULT_THETA_BOX",
    "DegenerateActiveSet",
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
        return sum(getattr(r, k).size for r in self.regions for k in _ARRAYS)


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
    lambda(theta) = Lam theta + lam_c for the active rows, from the online
    QP's KKT system with theta's columns and the constant as right-hand
    sides; DegenerateActiveSet when the rows fail qp.independent_rows.
    """
    A = list(active_set)
    GA = problem.G[A]
    if not independent_rows(GA):
        raise DegenerateActiveSet(str(active_set))
    z, lam = _kkt(problem.Sigma, GA,
                  -np.hstack([problem.F, np.zeros((len(problem.F), 1))]),
                  np.hstack([problem.S[A], problem.W[A][:, None]]))
    return z[:, :-1], z[:, -1], lam[:, :-1], lam[:, -1]


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


def _critical_regions(laws) -> list[CriticalRegion]:
    """The critical regions, in order, of the laws (active set, K, g, E, e)
    whose region has an interior: one stacked Chebyshev LP over all of
    them, then remove_redundant on each region kept, from its center."""
    balls = chebyshev_centers([(E, e) for *_, E, e in laws])
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
    regions = _critical_regions([law])
    if not regions:
        raise DegenerateActiveSet(f"region around {theta0} has no interior")
    return regions[0]


def _facet_center(E: np.ndarray, e: np.ndarray, i: int,
                  ) -> np.ndarray | None:
    """Chebyshev center of facet i (largest ball within the facet), found
    in its plane x0 + N y; None for a radius at most _MIN_RADIUS."""
    rows = [j for j in range(E.shape[0]) if j != i]
    x0 = E[i] * e[i] / (E[i] @ E[i])
    N = np.linalg.svd(E[i:i + 1])[2][1:].T
    ball = chebyshev_centers([(E[rows] @ N, e[rows] - E[rows] @ x0)])[0]
    if ball is None or ball[1] <= _MIN_RADIUS:
        return None
    return x0 + N @ ball[0]


def explore(problem: MpqpProblem, theta_box: np.ndarray | None = None,
            seed: int = 0) -> ExplicitSolution:
    """Every critical region with a nonempty interior in theta_box.

    Each set of at most Nu nonzero rows of G is a candidate active set.
    One whose rows fail the rank rule, qp.independent_rows (a condition
    number above 1e10), is pruned without an LP.  One stacked Chebyshev
    LP per segment, not per candidate, then finds every remaining
    candidate's region empty or gives a point strictly inside it, and
    ``remove_redundant`` reduces each kept region from that point without
    an LP.  ``stats`` counts the candidates, split into pruned_rank,
    empty_interior and the regions, and the chebyshev_lps (one per
    candidate that passes the rank rule) and chebyshev_lp_calls.  ``seed``
    is unused and kept for existing callers.
    """
    theta_box = DEFAULT_THETA_BOX if theta_box is None else theta_box
    Nu = problem.Sigma.shape[0]
    rows = np.flatnonzero(
        np.linalg.norm(problem.G, axis=1) > ZERO_ROW_TOL).tolist()
    candidates, laws = 0, []
    for size in range(min(Nu, len(rows)) + 1):
        for A in combinations(rows, size):
            candidates += 1
            try:
                laws.append((A, *_unreduced(problem, A, theta_box)))
            except DegenerateActiveSet:  # counted in pruned_rank
                pass
    regions = _critical_regions(laws)
    stats = dict(candidates=candidates, pruned_rank=candidates - len(laws),
                 empty_interior=len(laws) - len(regions),
                 chebyshev_lps=len(laws), chebyshev_lp_calls=int(bool(laws)))
    return ExplicitSolution(regions, problem.segment_index, theta_box, Nu,
                            stats=stats)


def locate(solution: ExplicitSolution, theta: np.ndarray) -> int | None:
    """Index of the region whose largest violation at theta is smallest,
    None when it exceeds the table's locate_tol.  The answer does not
    depend on region order: a tie goes to the smaller first move, the more
    cautious current.

    After the one stacked product the reduction runs on a Python list of
    one value per region, where numpy's dispatch would cost more than the
    comparisons.  A theta with a NaN or infinite entry lies in no bounded
    region and is not located; it is turned away before the product,
    whose 0 * inf would make numpy warn.
    """
    if not all(map(math.isfinite, theta.tolist())):
        return None
    worst = (solution._E @ theta - solution._e).max(axis=1).tolist()
    best = min(worst, default=math.inf)
    if not best <= solution.locate_tol:
        return None
    if worst.count(best) == 1:
        return worst.index(best)
    regs = solution.regions
    return min((k for k, v in enumerate(worst) if v == best),
               key=lambda k: regs[k].K[0] @ theta + regs[k].g[0])


def coverage_check(solution: ExplicitSolution, problem: MpqpProblem,
                   n_samples: int, seed: int) -> float:
    """Fraction of random feasible theta in the box covered by some region,
    within the table's locate_tol.

    Each region tests every sample in one product with the samples as
    columns, E @ thetas.T, reduced over its p rows along the long axis.  A
    miss may simply be an infeasible parameter: misses that break a
    theta-only row (a zero row of G) are dropped at once, the rest are
    feasible when the QP's feasible set there has an interior (Chebyshev
    radius above 1e-12), found for all of them by one stacked LP.  With
    no sample covered and no feasible miss (0/0) it reads 1.0, also for
    a table of no region.
    """
    rng = np.random.default_rng(seed)
    box = solution.theta_box
    thetas = rng.uniform(box[:, 0], box[:, 1], size=(n_samples, THETA_DIM))
    covered = np.zeros(n_samples, dtype=bool)
    for r in solution.regions:
        # thetas.T is a view; reducing along the long sample axis is about
        # 3x faster than np.all(thetas @ E.T <= e, axis=1) over p entries
        covered |= np.logical_and.reduce(
            r.E @ thetas.T <= (r.e + solution.locate_tol)[:, None], axis=0)
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
    far right of the point, so it is its own rounding.  Adding 0.0 turns
    -0.0 into 0.0, so the bytes do not depend on the sign of noise below
    the decimals."""
    with np.errstate(over="ignore"):
        r = np.round(a, decimals)
    return np.where(np.isfinite(r), r, a) + 0.0


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
    return replace(solution, regions=regs,
                   locate_tol=max(solution.locate_tol, tol))


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


def export_table(sol: ExplicitSolution, path) -> str:
    """Persist a region table, binary when path ends in ".bin" and JSON
    otherwise, and return the encoding written, "bin" or "json".  Either
    round trips bit-exactly (floats go through repr in JSON, raw IEEE754
    in binary)."""
    fmt = "bin" if str(path).endswith(".bin") else "json"
    if fmt == "json":
        doc = {"format": "empc-table", "version": 1,
               "segment_index": sol.segment_index, "Nu": sol.Nu,
               "theta_dim": THETA_DIM, "locate_tol": sol.locate_tol,
               "theta_box": sol.theta_box.tolist(),
               "regions": [{**{k: getattr(r, k).tolist() for k in _ARRAYS},
                            "active_set": list(r.active_set)}
                           for r in sol.regions]}
        data = json.dumps(doc, indent=1).encode()
    else:
        parts = [_MAGIC, _HEADER.pack(sol.segment_index, sol.Nu, THETA_DIM,
                                      len(sol.regions), sol.locate_tol),
                 sol.theta_box.astype("<f8").tobytes()]
        for r in sol.regions:
            parts += [_RECORD.pack(len(r.e), len(r.active_set)),
                      np.asarray(r.active_set, "<i4").tobytes()]
            parts += [getattr(r, k).astype("<f8").tobytes() for k in _ARRAYS]
        data = b"".join(parts)
    _atomic_write(path, data)
    return fmt


def _integer(v):
    """v when JSON spelled it as an integer: not a float, not a bool."""
    if type(v) is not int:
        raise ValueError(f"{v!r} is not an integer")
    return v


def _number(v, where: str):
    """v when JSON spelled it, or each entry of its nested lists, as a
    number: an integer or a float, not a bool or a string."""
    stack = [v]
    while stack:
        x = stack.pop()
        if type(x) is list:
            stack += x
        elif type(x) not in (int, float):
            raise ValueError(f"{where}: {x!r} is not a number")
    return v


def import_table(path) -> ExplicitSolution:
    """The region table at path, in either encoding: OSError when the file
    cannot be read, ValueError naming the path for any other fault, a
    non-finite number, a negative count or locate_tol, a count, index or
    active-set row that JSON does not spell as an integer, a float field
    it spells as a bool or a string, and an active set with a repeated or
    negative row or more than Nu rows included."""
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
            tol, box = (_number(doc[k], k) for k in ("locate_tol",
                                                      "theta_box"))
            records = [([_number(r[k], f"regions[{n}].{k}") for k in _ARRAYS],
                        [_integer(i) for i in r["active_set"]])
                       for n, r in enumerate(doc["regions"])]
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
