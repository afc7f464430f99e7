import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import issparse

from empcharge import qp, regions
from empcharge.cli import _synthesis_objects, _theta_box
from empcharge.mpqp import MpqpProblem
from empcharge.qp import (DenseQp, QpError, chebyshev_center,
                          chebyshev_centers, lp_feasible, remove_redundant,
                          solve_qp)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_unconstrained():
    # min 0.5 z'z - 2'z  ->  z* = [2, 2]
    qp = DenseQp(np.eye(2), np.array([-2.0, -2.0]),
                 np.zeros((0, 2)), np.zeros(0))
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert np.allclose(sol.z_star, [2.0, 2.0], atol=1e-10)
    assert sol.active_set == ()


def test_single_active_bound():
    # min 0.5 z^2 - 2z s.t. z <= 1: unconstrained z*=2, so the bound is
    # active with multiplier lambda = 2 - 1 = 1
    qp = DenseQp(np.eye(1), np.array([-2.0]),
                 np.array([[1.0]]), np.array([1.0]))
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert sol.z_star[0] == pytest.approx(1.0, abs=1e-10)
    assert sol.active_set == (0,)
    assert sol.multipliers[0] == pytest.approx(1.0, abs=1e-8)


def test_inactive_bound():
    qp = DenseQp(np.eye(1), np.array([-2.0]),
                 np.array([[1.0]]), np.array([5.0]))
    sol = solve_qp(qp)
    assert sol.z_star[0] == pytest.approx(2.0, abs=1e-10)
    assert sol.active_set == ()


def test_infeasible():
    # z <= 0 and -z <= -1 cannot both hold
    qp = DenseQp(np.eye(1), np.zeros(1),
                 np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
    sol = solve_qp(qp)
    assert sol.status == "infeasible"
    assert sol.z_star is None


# z >= 1: the origin breaks the row, so a solve makes a phase-1 LP
_NEEDS_PHASE1 = DenseQp(np.eye(1), np.zeros(1), np.array([[-1.0]]),
                        np.array([-1.0]))


def _phase1_returns(monkeypatch, status):
    """Every LP fails with HiGHS's status code status."""
    monkeypatch.setattr(qp, "linprog", lambda *a, **k: SimpleNamespace(
        status=status, success=False, x=None, message=f"status {status}"))


def test_phase1_infeasible_status_gives_infeasible(monkeypatch):
    _phase1_returns(monkeypatch, 2)
    assert solve_qp(_NEEDS_PHASE1).status == "infeasible"


def test_phase1_other_failure_raises(monkeypatch):
    """A phase-1 LP that fails for a reason other than infeasibility, here
    HiGHS's numerical difficulties, is an error, not an infeasible QP."""
    _phase1_returns(monkeypatch, 4)
    with pytest.raises(QpError, match="phase-1 LP: status 4"):
        solve_qp(_NEEDS_PHASE1)


def test_zero_row_infeasible():
    # all-zero row with negative bound: 0 <= -1 is impossible
    qp = DenseQp(np.eye(1), np.zeros(1),
                 np.array([[0.0]]), np.array([-1.0]))
    sol = solve_qp(qp)
    assert sol.status == "infeasible"


def test_zero_row_vacuous():
    qp = DenseQp(np.eye(1), np.array([-1.0]),
                 np.array([[0.0]]), np.array([2.0]))
    sol = solve_qp(qp)
    assert sol.z_star[0] == pytest.approx(1.0, abs=1e-10)


def test_not_positive_definite():
    with pytest.raises(QpError):
        solve_qp(DenseQp(np.array([[0.0]]), np.zeros(1),
                         np.zeros((0, 1)), np.zeros(0)))


def test_asymmetric_h_rejected():
    with pytest.raises(QpError):
        DenseQp(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2),
                np.zeros((0, 2)), np.zeros(0))


_BIG = 1e7  # 1e-6 relative asymmetry is 10: inside rtol, far past atol
# H and whether np.allclose(H, H.T, atol=1e-10) holds
SYMMETRY_CASES = {
    "exact": ([[2.0, 0.3], [0.3, 1.0]], True),
    "off_by_1e-11": ([[2.0, 0.3], [0.3 + 1e-11, 1.0]], True),
    "off_by_1e-9": ([[1e-6, 0.0], [1e-9, 1e-6]], False),
    "off_by_1e-9_within_rtol": ([[2.0, 0.3], [0.3 + 1e-9, 1.0]], True),
    "relative_1e-6": ([[_BIG, _BIG], [_BIG * (1 + 1e-6), 2 * _BIG]], True),
    "relative_1e-4": ([[_BIG, _BIG], [_BIG * (1 + 1e-4), 2 * _BIG]], False),
    "nan_off_diagonal": ([[1.0, np.nan], [np.nan, 1.0]], False),
    "nan_diagonal": ([[np.nan, 0.0], [0.0, 1.0]], False),
    "inf_diagonal": ([[np.inf, 0.0], [0.0, 1.0]], True),
    "inf_both_sides": ([[1.0, np.inf], [np.inf, 1.0]], True),
    "inf_opposite_signs": ([[1.0, np.inf], [-np.inf, 1.0]], False),
    "inf_against_finite": ([[1.0, np.inf], [1e300, 1.0]], False),
    "one_by_one": ([[3.0]], True),
    "three_by_three": ([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2],
                        [0.5, 0.2 + 2e-5, 2.0]], False),
}


@pytest.mark.parametrize("case", list(SYMMETRY_CASES))
def test_symmetry_check_agrees_with_allclose(case):
    H, symmetric = SYMMETRY_CASES[case]
    H = np.array(H)
    assert bool(np.allclose(H, H.T, atol=1e-10)) is symmetric
    assert qp._symmetric(H) is symmetric
    n = len(H)
    if symmetric:
        DenseQp(H, np.zeros(n), np.zeros((0, n)), np.zeros(0))
    else:
        with pytest.raises(QpError):
            DenseQp(H, np.zeros(n), np.zeros((0, n)), np.zeros(0))


def test_unconstrained_minimizer_returned_at_once(monkeypatch):
    """A feasible unconstrained minimizer comes back as it is: the bits of
    -H^-1 f, no active row, no multipliers and no feasible-start search."""
    starts = []
    monkeypatch.setattr(qp, "_feasible_start",
                        lambda *a: starts.append(a) or None)
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.standard_normal((3, 3))
        H = M @ M.T + 0.1 * np.eye(3)
        f = rng.standard_normal(3)
        G = rng.standard_normal((5, 3))
        w = G @ -np.linalg.solve(H, f) + rng.uniform(0.0, 1.0, 5)
        sol = solve_qp(DenseQp(H, f, G, w))
        assert sol.status == "optimal"
        assert np.array_equal(sol.z_star, -np.linalg.solve(H, f))
        assert sol.active_set == ()
        assert sol.multipliers.shape == (0,)
    assert starts == []


def test_kkt_residuals_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n, m = 3, 8
        M = rng.standard_normal((n, n))
        H = M @ M.T + n * np.eye(n)
        f = rng.standard_normal(n)
        G = rng.standard_normal((m, n))
        z_feas = rng.standard_normal(n)
        w = G @ z_feas + rng.uniform(0.0, 1.0, m)  # feasible by design
        sol = solve_qp(DenseQp(H, f, G, w))
        assert sol.status == "optimal"
        # stationarity
        lam_full = np.zeros(m)
        lam_full[list(sol.active_set)] = sol.multipliers
        assert np.linalg.norm(H @ sol.z_star + f + G.T @ lam_full) < 1e-7
        # primal feasibility and complementarity
        slack = G @ sol.z_star - w
        assert np.max(slack) < 1e-7
        assert np.all(np.abs(slack[list(sol.active_set)]) < 1e-7)
        assert np.all(lam_full >= -1e-9)


def test_matches_grid_search_2d():
    rng = np.random.default_rng(21)
    grid = np.linspace(-3.0, 3.0, 601)
    ZX, ZY = np.meshgrid(grid, grid)
    pts = np.column_stack([ZX.ravel(), ZY.ravel()])
    for _ in range(10):
        M = rng.standard_normal((2, 2))
        H = M @ M.T + 2 * np.eye(2)
        f = rng.standard_normal(2)
        G = rng.standard_normal((5, 2))
        w = G @ np.zeros(2) + rng.uniform(0.2, 1.5, 5)  # origin feasible
        sol = solve_qp(DenseQp(H, f, G, w))
        feas = np.all(pts @ G.T <= w + 1e-12, axis=1)
        vals = 0.5 * np.einsum("ij,jk,ik->i", pts, H, pts) + pts @ f
        best = pts[feas][np.argmin(vals[feas])]
        assert np.linalg.norm(sol.z_star - best) < 2e-2
        obj = lambda z: 0.5 * z @ H @ z + f @ z
        assert obj(sol.z_star) <= obj(best) + 1e-9


def test_vertex_optimum_with_large_multipliers():
    H = np.array([[2.49143723, -0.481889], [-0.481889, 0.3875974]])
    f = np.array([0.1515621, 1.16438366])
    G = np.array([[-0.43039542, 1.02972077], [0.31026913, -0.74006117]])
    w = np.array([-0.01404248, -0.7990104])
    assert linprog(np.zeros(2), A_ub=G, b_ub=w,
                   bounds=[(None, None)] * 2, method="highs").status == 0
    sol = solve_qp(DenseQp(H, f, G, w))
    assert sol.status == "optimal"
    assert sol.active_set == (0, 1)
    assert np.allclose(sol.z_star, np.linalg.solve(G, w), rtol=1e-9)
    assert np.allclose(sol.z_star, [-857.477, -358.416], atol=1e-3)
    assert np.all(sol.multipliers > 1e6)


def _random_qps():
    """The 3000 random QPs of the probe below: n in 1..4, m in 1..11."""
    rng = np.random.default_rng(1)
    for _ in range(3000):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 12))
        A = rng.standard_normal((n, n))
        H = A @ A.T + 0.1 * np.eye(n)
        yield (H, rng.standard_normal(n), rng.standard_normal((m, n)),
               rng.standard_normal(m))


def _check_solution(sol, H, f, G, w):
    """Optimal with KKT residuals within 1e-10 scaled, or infeasible where
    HiGHS agrees."""
    n, m = G.shape[1], len(G)
    if sol.status == "infeasible":
        assert linprog(np.zeros(n), A_ub=G, b_ub=w,
                       bounds=[(None, None)] * n,
                       method="highs").status == 2
        return
    z, act = sol.z_star, list(sol.active_set)
    lam = np.zeros(m)
    lam[act] = sol.multipliers
    assert np.all(sol.multipliers >= 0.0)
    scale = 1.0 + np.max(np.abs(G.T) @ lam) + np.max(np.abs(H @ z))
    assert np.max(np.abs(H @ z + f + G.T @ lam)) <= 1e-10 * scale
    slack = G @ z - w
    assert np.all(slack <= 1e-10 * (1.0 + np.max(np.abs(z))))
    assert np.all(np.abs(slack[act]) <= 1e-10 * (1.0 + np.max(np.abs(z))))


def test_random_qp_probe_solves_every_feasible_qp():
    """3000 random QPs, n in 1..4 and m in 1..11: each comes back optimal
    with small KKT residuals, or infeasible where HiGHS agrees; none
    raises.  Six of them end at a vertex, n rows active with multipliers
    up to 2e6, where a KKT step on the full working set is rounding
    noise."""
    for H, f, G, w in _random_qps():
        _check_solution(solve_qp(DenseQp(H, f, G, w)), H, f, G, w)


def test_guess_of_the_optimal_active_set_is_accepted_at_once(monkeypatch):
    """Guessing the active set a cold solve ends on returns the same
    solution, within 1e-10 scaled, from one KKT solve: no feasible-start
    search, so no phase-1 LP."""
    cases = [(H, f, G, w, solve_qp(DenseQp(H, f, G, w)))
             for H, f, G, w in _random_qps()]
    starts, kkts = [], []
    monkeypatch.setattr(qp, "_feasible_start",
                        lambda *a: starts.append(a) or None)
    monkeypatch.setattr(qp, "_kkt",
                        lambda *a, _real=qp._kkt: kkts.append(1) or _real(*a))
    guessed = 0
    for H, f, G, w, cold in cases:
        if cold.status != "optimal" or not cold.active_set:
            continue
        guessed += 1
        kkts.clear()
        warm = solve_qp(DenseQp(H, f, G, w), cold.active_set)
        assert len(kkts) == 1
        assert warm.status == "optimal"
        assert warm.active_set == cold.active_set
        assert (np.max(np.abs(warm.z_star - cold.z_star))
                <= 1e-10 * (1.0 + np.max(np.abs(cold.z_star))))
    assert starts == []
    assert guessed > 1000


def test_linprog_matches_scipy_linprog(monkeypatch, problems):
    """qp.linprog, HiGHS through scipy.optimize.milp, returns the status
    and the bits of x that scipy.optimize.linprog returns, on the three
    kinds of LP the program makes: a phase-1 LP, an infeasible one, and
    the stacked sparse Chebyshev LP of one explore."""
    lps = []
    monkeypatch.setattr(qp, "linprog", lambda *a, _real=qp.linprog, **k:
                        lps.append((a, k)) or _real(*a, **k))
    solve_qp(_NEEDS_PHASE1)
    # z0 >= 1 and z0 <= 0 cannot both hold
    solve_qp(DenseQp(np.eye(2), np.zeros(2), np.array([[-1.0, 0.0],
                                                       [1.0, 0.0]]),
                     np.array([-1.0, 0.0])))
    regions.explore(problems[0])
    monkeypatch.undo()
    assert len(lps) == 3 and issparse(lps[2][1]["A_ub"])
    statuses = []
    for args, kw in lps:
        ours, ref = qp.linprog(*args, **kw), linprog(*args, **kw)
        assert ours.status == ref.status
        if ref.status == 0:
            assert ours.x.tobytes() == ref.x.tobytes()
        statuses.append(ref.status)
    assert statuses == [0, 2, 0]


def test_any_guess_gives_the_cold_status_and_a_kkt_point():
    """A guess of random rows changes how a QP is solved, never whether it
    is feasible, and never raises QpError.  The QPs of the probe get a
    zero row and a row that is the sum of two others (with the sum of
    their bounds, so it can be active with them), and the guesses include
    no rows, more than n rows, repeated rows, the zero row and the sum row
    together with its two terms."""
    rng = np.random.default_rng(2)
    for H, f, G, w in _random_qps():
        n, m = G.shape[1], len(G)
        a, b = rng.integers(0, m, 2)
        G = np.vstack([G, np.zeros(n), G[a] + G[b]])
        w = np.concatenate([w, [abs(rng.standard_normal()), w[a] + w[b]]])
        if rng.random() < 0.25:
            guess = (int(a), int(b), m + 1)
        else:
            guess = tuple(rng.integers(0, m + 2, rng.integers(0, n + 2))
                          .tolist())
        cold = solve_qp(DenseQp(H, f, G, w))
        warm = solve_qp(DenseQp(H, f, G, w), guess)
        assert warm.status == cold.status
        _check_solution(warm, H, f, G, w)


def _rank_case_problem():
    """min 0.5 |z|^2 - 5 (z1 + z2), so the unconstrained minimizer (5, 5)
    breaks the rows below, all but the first tight at the optimum (1, 1):
    0 a zero row, 1 z1 <= 1, 2 its double, 3 z2 <= 1, 4 row 1 tilted by
    2e-11 (condition number about 1e11 with row 1), 5 z1 + z2 <= 2.  Its
    parameter theta = (-5, -5, 0, 0, 0) gives that QP."""
    eps = 2e-11
    F = np.zeros((2, 5))
    F[0, 0] = F[1, 1] = 1.0
    G = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0],
                  [1.0, eps], [1.0, 1.0]])
    W = np.array([1.0, 1.0, 2.0, 1.0, 1.0 + eps, 2.0])
    return MpqpProblem(Sigma=np.eye(2), F=F, G=G, S=np.zeros((6, 5)), W=W,
                       segment_index=1, labels=tuple("abcdef"))


# the rows of each rejected working set: a zero row, two parallel rows,
# n + 1 rows, and a pair with a condition number about 1e11
RANK_REJECTED = [(0,), (1, 2), (1, 3, 5), (1, 4)]


def test_rank_rule_of_the_explorer_and_the_guess(monkeypatch):
    """qp.independent_rows decides for both callers: law_for_active_set
    raises DegenerateActiveSet and solve_qp starts cold on each rejected
    set, and both accept the well-conditioned pair (1, 3), whose KKT
    point (1, 1) is the optimum."""
    p = _rank_case_problem()
    theta = np.array([-5.0, -5.0, 0.0, 0.0, 0.0])
    assert 1e10 < np.linalg.cond(p.G[[1, 4]]) < 1e12
    starts = []
    feasible_start = qp._feasible_start
    monkeypatch.setattr(qp, "_feasible_start",
                        lambda *a: starts.append(1) or feasible_start(*a))
    for rows in RANK_REJECTED:
        assert not qp.independent_rows(p.G[list(rows)])
        with pytest.raises(regions.DegenerateActiveSet):
            regions.law_for_active_set(p, rows)
        starts.clear()
        sol = solve_qp(p.qp(theta), rows)
        assert starts == [1], rows
        assert np.allclose(sol.z_star, [1.0, 1.0], atol=1e-9)
    assert qp.independent_rows(p.G[[1, 3]])
    K, g, Lam, lam_c = regions.law_for_active_set(p, (1, 3))
    assert np.allclose(K @ theta + g, [1.0, 1.0])
    assert np.allclose(Lam @ theta + lam_c, [4.0, 4.0])
    starts.clear()
    sol = solve_qp(p.qp(theta), (1, 3))
    assert starts == []
    assert (sol.active_set, sol.z_star.tolist()) == ((1, 3), [1.0, 1.0])
    assert np.allclose(sol.multipliers, [4.0, 4.0])


def test_deterministic():
    rng = np.random.default_rng(4)
    H = np.eye(3)
    f = rng.standard_normal(3)
    G = rng.standard_normal((6, 3))
    w = rng.uniform(0.1, 1.0, 6)
    a = solve_qp(DenseQp(H, f, G, w))
    b = solve_qp(DenseQp(H, f, G, w))
    assert np.array_equal(a.z_star, b.z_star)
    assert a.active_set == b.active_set


def test_chebyshev_center_unit_square():
    G = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    w = np.ones(4)
    center, radius = chebyshev_center(G, w)
    assert np.allclose(center, 0.0, atol=1e-8)
    assert radius == pytest.approx(1.0, abs=1e-8)


def test_chebyshev_center_empty():
    G = np.array([[1.0], [-1.0]])
    w = np.array([0.0, -1.0])
    assert chebyshev_center(G, w) is None


def test_chebyshev_centers_match_single_calls(monkeypatch):
    """One stacked call over an empty polytope, one with a zero row and
    w < 0, one with no rows, an unbounded one and the unit square gives
    what one call per polytope gives: None, or the radius within 1e-9."""
    polys = [
        (np.array([[1.0], [-1.0]]), np.array([0.0, -1.0])),
        (np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([-1.0, 1.0])),
        (np.zeros((0, 2)), np.zeros(0)),
        (np.array([[1.0, 0.0]]), np.array([1.0])),
        (np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)),
    ]
    singles = [chebyshev_center(G, w) for G, w in polys]
    calls = []

    def counting(*args, **kw):
        calls.append(1)
        return linprog(*args, **kw)

    monkeypatch.setattr(qp, "linprog", counting)
    stacked = chebyshev_centers(polys)
    assert len(calls) == 1
    assert [s is None for s in stacked] == [True, True, False, False, False]
    for (G, w), one, many in zip(polys, singles, stacked):
        assert (one is None) == (many is None)
        if many is not None:
            assert many[1] == pytest.approx(one[1], abs=1e-9)
            assert np.all(G @ many[0] <= w + 1e-9)
    assert stacked[4][1] == pytest.approx(1.0, abs=1e-9)


def test_lp_feasible():
    G = np.array([[1.0], [-1.0]])
    ok, z = lp_feasible(G, np.array([1.0, 1.0]))
    assert ok and abs(z[0]) <= 1.0
    ok, z = lp_feasible(G, np.array([0.0, 0.0]))  # single point, no interior
    assert not ok and z is None


def test_remove_redundant_unit_square():
    # unit square plus two redundant rows (a loose bound and a duplicate)
    G = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                  [1.0, 0.0], [1.0, 1.0]])
    w = np.array([1.0, 1.0, 1.0, 1.0, 3.0, 5.0])
    Gr, wr, kept = remove_redundant(G, w, chebyshev_center(G, w)[0])
    assert sorted(kept) == [0, 1, 2, 3]
    assert Gr.shape == (4, 2)


def test_remove_redundant_center_on_boundary_is_one_line():
    """A center on a facet is a qhull input error; the QpError, which
    synthesize prints as a config error, keeps qhull's first line and
    drops its option dump."""
    G = np.vstack([np.eye(2), -np.eye(2)])
    with pytest.raises(QpError) as info:
        remove_redundant(G, np.ones(4), np.array([1.0, 0.0]))
    message = str(info.value)
    assert "\n" not in message and "QH6023" in message
    assert message.startswith("halfspace intersection: ")


def test_remove_redundant_preserves_set():
    rng = np.random.default_rng(9)
    for trial in range(5):
        G = rng.standard_normal((12, 2))
        w = rng.uniform(0.5, 2.0, 12)  # contains origin
        Gr, wr, kept = remove_redundant(G, w, chebyshev_center(G, w)[0])
        pts = rng.uniform(-3.0, 3.0, size=(5000, 2))
        in_full = np.all(pts @ G.T <= w + 1e-9, axis=1)
        in_red = np.all(pts @ Gr.T <= wr + 1e-9, axis=1)
        assert np.array_equal(in_full, in_red)


def _remove_redundant_reference(G, w, tol=1e-9):
    """One LP per row, in row order, over the rows kept so far."""
    norms = np.linalg.norm(G, axis=1)
    kept = []
    for i in np.flatnonzero(norms > 1e-12):
        gi, wi = G[i] / norms[i], w[i] / norms[i]
        if not any(np.linalg.norm(G[j] / norms[j] - gi) < 1e-12
                   and w[j] / norms[j] <= wi + 1e-12 for j in kept):
            kept.append(int(i))
    for i in list(kept):
        others = [j for j in kept if j != i]
        res = linprog(-G[i], A_ub=np.vstack([G[others], G[i:i + 1]]),
                      b_ub=np.concatenate([w[others], [w[i] + 1.0]]),
                      bounds=[(None, None)] * G.shape[1], method="highs")
        if res.success and -res.fun <= w[i] + tol:
            kept.remove(i)
    return kept


def _random_polytope(rng, n, m):
    """A box plus m random cuts, with duplicated, scaled and weakly
    redundant rows and a near-duplicate of one facet, rows shuffled."""
    G = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((m, n))])
    w = np.concatenate([np.ones(2 * n), rng.uniform(0.2, 1.5, m)])
    vertex = rng.choice([-1.0, 1.0], n)
    weak = rng.uniform(0.1, 1.0, n) * vertex
    dup = rng.integers(0, len(w), 3)
    G = np.vstack([G, weak, G[dup], 2.0 * G[dup[:1]]])
    w = np.concatenate([w, [weak @ vertex], w[dup], 2.0 * w[dup[:1]]])
    facet = rng.choice(_remove_redundant_reference(G, w))
    G = np.vstack([G, G[facet]])
    w = np.append(w, w[facet] + rng.choice([-5e-10, 5e-10]))
    order = rng.permutation(len(w))
    return G[order], w[order]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
       m=st.integers(1, 8))
def test_remove_redundant_matches_per_row_lps(seed, n, m):
    """Random bounded polytopes (a box plus random cuts) with duplicated,
    scaled and weakly redundant rows: a row through a box vertex whose
    normal lies in that vertex's normal cone touches the polytope at the
    vertex only.  A near-duplicate of a facet, its bound shifted by 5e-10,
    is within the redundancy tolerance of that facet but not a duplicate:
    the row-order LPs keep the tighter of the two, and so does qhull.  The
    intersection is taken around the Chebyshev center and around another
    point strictly inside."""
    rng = np.random.default_rng(seed)
    G, w = _random_polytope(rng, n, m)
    center, radius = chebyshev_center(G, w)
    u = rng.standard_normal(n)
    off_center = center + 0.5 * radius * u / np.linalg.norm(u)
    expect = _remove_redundant_reference(G, w)
    for inner in (center, off_center):
        _, _, kept = remove_redundant(G, w, inner)
        assert kept == expect


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6))
def test_remove_redundant_many_matches_per_polytope_reference(seed, size):
    """Over a list of random polytopes of 2 to 5 dimensions, each reduced
    from its Chebyshev center keeps the rows of one LP per row in row
    order.  The list also holds two rows of one facet of the unit square
    5e-10 apart, and the unit square itself, all of whose rows are
    facets."""
    rng = np.random.default_rng(seed)
    square = (np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    near = (np.vstack([[1.0, 0.0], square[0]]),
            np.array([1.0, 1.0 - 5e-10, 1.0, 1.0, 1.0]))
    polys = [_random_polytope(rng, int(rng.integers(2, 6)),
                              int(rng.integers(1, 9))) for _ in range(size)]
    polys.insert(int(rng.integers(0, size + 1)), near)
    polys.append(square)
    out = [remove_redundant(G, w, chebyshev_center(G, w)[0])
           for G, w in polys]
    for (G, w), (Gr, wr, kept) in zip(polys, out):
        assert kept == _remove_redundant_reference(G, w)
        assert np.array_equal(Gr, G[kept]) and np.array_equal(wr, w[kept])
    assert out[-1][2] == [0, 1, 2, 3]


def test_remove_redundant_settles_near_duplicates_row_by_row():
    """Two rows of one facet of the unit square, the second tighter by
    5e-10 (a looser copy after it would be dropped as a duplicate): each
    is redundant given the other within the LPs' 1e-9 tolerance, so the
    row-order LPs drop the first and keep the second.  Qhull keeps the
    tighter row too: the looser one cuts nothing off."""
    G = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                  [0.0, -1.0]])
    w = np.array([1.0, 1.0 - 5e-10, 1.0, 1.0, 1.0])
    _, _, kept = remove_redundant(G, w, np.zeros(2))
    assert kept == _remove_redundant_reference(G, w) == [1, 2, 3, 4]


def _slab(rng, n, radius):
    """The box [-1, 1]^n cut by m random rows around the origin and by a
    slab 2 * radius thick through it, rows shuffled."""
    a = rng.standard_normal(n)
    a /= np.linalg.norm(a)
    mid = rng.uniform(-0.3, 0.3)
    m = int(rng.integers(0, 6))
    G = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((m, n)),
                   a, -a])
    w = np.concatenate([np.ones(2 * n), rng.uniform(0.5, 1.5, m),
                        [mid + radius, radius - mid]])
    order = rng.permutation(len(w))
    return G[order], w[order]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_remove_redundant_thin_slabs(n):
    """Slabs down to a Chebyshev radius of about 2e-9, just above the
    explorer's 1e-9 interior test: qhull, from the Chebyshev center, keeps
    the rows of one LP per row in row order."""
    rng = np.random.default_rng(100 + n)
    for radius in np.geomspace(2e-9, 1e-2, 15):
        G, w = _slab(rng, n, radius)
        center, r = chebyshev_center(G, w)
        assert r > 1e-9
        assert remove_redundant(G, w, center)[2] == (
            _remove_redundant_reference(G, w))


@pytest.mark.parametrize("center", [[1.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
def test_remove_redundant_needs_center_strictly_inside(center):
    """A center on the boundary (a facet, a vertex) or outside."""
    G = np.vstack([np.eye(2), -np.eye(2)])
    with pytest.raises(QpError):
        remove_redundant(G, np.ones(4), np.array(center))


def _shaved_box(rng, n, depth):
    """The box [-1, 1]^n with one vertex cut off to the given depth by a
    row whose normal lies in that vertex's normal cone; the row comes
    last."""
    vertex = rng.choice([-1.0, 1.0], n)
    a = rng.uniform(0.1, 1.0, n) * vertex
    a /= np.linalg.norm(a)
    G = np.vstack([np.eye(n), -np.eye(n), a])
    return G, np.append(np.ones(2 * n), a @ vertex - depth)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_remove_redundant_shaved_vertex(n):
    """A vertex shaved by 1e-8 or more is a facet to both qhull and the
    row-order LPs.  A shave of 5e-10 is a true facet too, and qhull keeps
    it, but it stays within the LPs' 1e-9 tolerance of its bound, so they
    drop it: the one case where the two differ."""
    rng = np.random.default_rng(n)
    for depth in (1e-2, 1e-5, 1e-8):
        G, w = _shaved_box(rng, n, depth)
        kept = remove_redundant(G, w, chebyshev_center(G, w)[0])[2]
        assert kept == _remove_redundant_reference(G, w)
        assert kept == list(range(2 * n + 1))
    G, w = _shaved_box(rng, n, 5e-10)
    kept = remove_redundant(G, w, chebyshev_center(G, w)[0])[2]
    assert kept == list(range(2 * n + 1))
    assert _remove_redundant_reference(G, w) == list(range(2 * n))


def test_remove_redundant_square_pyramid():
    """Four facets meet at the apex of a square pyramid, more than n = 3,
    so one facet of qhull's dual hull has four vertices.  Every row is a
    facet, and a redundant copy of the base, looser by 1, is dropped."""
    G = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 1.0], [-1.0, 0.0, 1.0],
                  [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]])
    w = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
    center = np.array([0.0, 0.0, 0.2])
    Gr, wr, kept = remove_redundant(G, w, center)
    assert kept == [0, 1, 2, 3, 4] == _remove_redundant_reference(G, w)
    assert np.array_equal(Gr, G) and np.array_equal(wr, w)
    kept = remove_redundant(np.vstack([G, G[:1]]), np.append(w, 1.0),
                            center)[2]
    assert kept == [0, 1, 2, 3, 4]


def test_remove_redundant_matches_per_row_lps_on_default_regions(
        monkeypatch):
    """Every region the explorer keeps on the 9 default segments and on
    segments 1-3 of horizon_Nc_eta5: the rows kept from its unreduced
    halfspaces are those of one LP per row in row order.  Also pins the
    explorer's counts, which do not depend on which optimal vertex HiGHS
    returns."""
    calls = []

    def recording(G, w, center):
        out = remove_redundant(G, w, center)
        calls.append((G, w, out[2]))
        return out

    monkeypatch.setattr(regions, "remove_redundant", recording)
    for config, n_segments, pin in (
            ("synthesis_default.json", 9, [99, 54, 1, 45]),
            ("horizon_Nc_eta5.json", 3, [87, 18, 19, 69])):
        doc = json.loads((CONFIGS / config).read_text())
        doc = doc.get("synthesis", doc)
        *_, problems = _synthesis_objects(doc)
        calls.clear()
        stats = Counter()
        for problem in problems[:n_segments]:
            stats.update(regions.explore(problem, _theta_box(doc)).stats)
        assert len(calls) == stats["chebyshev_lps"] - stats["empty_interior"]
        for G, w, kept in calls:
            assert kept == _remove_redundant_reference(G, w)
        assert [stats[k] for k in ("candidates", "pruned_rank",
                                   "empty_interior", "chebyshev_lps")
                ] == pin
