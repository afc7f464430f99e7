import json
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from empcharge import qp
from empcharge.cli import _synthesis_objects, _theta_box
from empcharge.mpqp import THETA_DIM, MpqpProblem
from empcharge.qp import (ZERO_ROW_TOL, DenseQp, chebyshev_center,
                          lp_feasible, remove_redundant, solve_qp)
from empcharge.regions import (DEFAULT_THETA_BOX, CriticalRegion,
                               DegenerateActiveSet,
                               ExplicitSolution, box_halfspaces,
                               coverage_check, explore, export_table,
                               import_table, law_for_active_set, locate,
                               region_for, rounded)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _toy_problem():
    """min 0.5 z^2 + theta_0 z  s.t.  -1 <= z <= 1.

    Optimizer: z* = clip(-theta_0, -1, 1) -> exactly three critical
    regions over theta_0 in [-3, 3].
    """
    return MpqpProblem(
        Sigma=np.array([[1.0]]),
        F=np.array([[1.0, 0.0, 0.0, 0.0, 0.0]]),
        G=np.array([[1.0], [-1.0]]),
        S=np.zeros((2, 5)),
        W=np.array([1.0, 1.0]),
        segment_index=1,
        labels=("z<=", "z>="),
    )


TOY_BOX = np.array([[-3.0, 3.0], [0.0, 1.0], [0.0, 1.0],
                    [0.0, 1.0], [0.0, 1.0]])


def test_toy_three_regions():
    sol = explore(_toy_problem(), theta_box=TOY_BOX)
    assert sol.n_regions == 3
    assert sorted(r.active_set for r in sol.regions) == [(), (0,), (1,)]


def test_toy_law_values():
    prob = _toy_problem()
    sol = explore(prob, theta_box=TOY_BOX)
    for t0, z_expect in [(-2.5, 1.0), (-0.3, 0.3), (0.0, 0.0),
                         (0.7, -0.7), (2.0, -1.0)]:
        theta = np.array([t0, 0.5, 0.5, 0.5, 0.5])
        idx = locate(sol, theta)
        assert idx is not None
        r = sol.regions[idx]
        assert float(r.K[0] @ theta + r.g[0]) == pytest.approx(z_expect,
                                                               abs=1e-9)


def test_unconstrained_law(problems):
    p = problems[0]
    K, g, Lam, lam_c = law_for_active_set(p, ())
    assert np.allclose(K, -np.linalg.solve(p.Sigma, p.F), atol=1e-12)
    assert np.allclose(g, 0.0)
    assert Lam.shape == (0, 5)


def test_region_for_matches_qp(problems):
    p = problems[0]
    theta0 = np.array([0.25, 0.25, 0.5, 0.9, 0.0])
    reg = region_for(p, theta0)
    qp = DenseQp(p.Sigma, p.F @ theta0, p.G, p.S @ theta0 + p.W)
    ref = solve_qp(qp)
    assert reg.active_set == ref.active_set
    assert np.allclose(reg.K @ theta0 + reg.g, ref.z_star, atol=1e-9)
    # theta0 itself must lie in the region
    assert np.all(reg.E @ theta0 <= reg.e + 1e-9)


def test_region_for_rejects_infeasible_theta0(problems):
    """Full cells at full current: no move keeps the k=1 rows."""
    theta0 = np.array([1.0, 1.0, 3.0, 0.9, 3.0])
    with pytest.raises(ValueError, match="theta0"):
        region_for(problems[0], theta0)


def test_explored_law_matches_qp_samples(problems, solutions):
    rng = np.random.default_rng(13)
    for si in (0, 4, 8):
        p, sol = problems[si], solutions[si]
        box = sol.theta_box
        done = 0
        while done < 40:
            theta = rng.uniform(box[:, 0], box[:, 1])
            ref = solve_qp(DenseQp(p.Sigma, p.F @ theta, p.G,
                                   p.S @ theta + p.W))
            if ref.status != "optimal":
                continue
            done += 1
            idx = locate(sol, theta)
            assert idx is not None, theta
            r = sol.regions[idx]
            assert np.allclose(r.K @ theta + r.g, ref.z_star, atol=1e-7)


# active sets of the default MPC per segment; rows 1-3 and 5 are
# I<=, I>=, V<= at k=1 and eta<= at k=2
DEFAULT_ACTIVE_SETS = [[(), (1,), (2,), (5,)]] + 8 * [
    [(), (1,), (2,), (3,), (5,)]]


def test_default_active_sets(problems, solutions):
    assert [s.n_regions for s in solutions] == [4, 5, 5, 5, 5, 5, 5, 5, 5]
    for p, sol, expect in zip(problems, solutions, DEFAULT_ACTIVE_SETS):
        assert sorted(r.active_set for r in sol.regions) == expect
        st = sol.stats
        assert st["candidates"] == (st["pruned_rank"] + st["empty_interior"]
                                    + sol.n_regions)
        for r in sol.regions:
            ref = region_for(p, chebyshev_center(r.E, r.e)[0],
                             sol.theta_box)
            assert ref.active_set == r.active_set
            for key in ("E", "e", "K", "g"):
                assert np.array_equal(getattr(ref, key), getattr(r, key))


def test_region_count_small(solutions):
    # every constraint row here depends on the first move only, so at most
    # one constraint can be active and the region count stays tiny
    for sol in solutions:
        assert 1 <= sol.n_regions <= 5


def test_regions_have_disjoint_interiors(solutions):
    for sol in solutions:
        for i, r in enumerate(sol.regions):
            ball = chebyshev_center(r.E, r.e)
            assert ball is not None and ball[1] > 1e-9
            for j, other in enumerate(sol.regions):
                if i == j:
                    continue
                # strict interior of one region is outside every other
                assert not np.all(other.E @ ball[0] <= other.e - 1e-12)


def test_coverage(problems, solutions):
    for p, sol in zip(problems[:3], solutions[:3]):
        assert coverage_check(sol, p, n_samples=20000, seed=1) == pytest.approx(
            1.0, abs=1e-6)


def _coverage_reference(solution, problem, n_samples, seed):
    """coverage_check with one lp_feasible call per missed sample."""
    rng = np.random.default_rng(seed)
    box = solution.theta_box
    thetas = rng.uniform(box[:, 0], box[:, 1], size=(n_samples, THETA_DIM))
    n_covered = n_feas_missed = 0
    for theta in thetas:
        if any(np.all(r.E @ theta <= r.e + solution.locate_tol)
               for r in solution.regions):
            n_covered += 1
            continue
        w = problem.S @ theta + problem.W
        zero = np.linalg.norm(problem.G, axis=1) <= ZERO_ROW_TOL
        if np.all(w[zero] >= 0):
            n_feas_missed += lp_feasible(problem.G, w, tol=1e-12)[0]
    return n_covered / (n_covered + n_feas_missed)


def test_coverage_of_table_with_hole_in_one_lp(monkeypatch, problems,
                                               solutions):
    """With one region deleted, the missed feasible theta are found by one
    stacked LP, and the coverage is that of one LP per missed sample."""
    p, sol = problems[4], solutions[4]
    holed = ExplicitSolution(sol.regions[1:], sol.segment_index,
                             sol.theta_box, sol.Nu, sol.locate_tol)
    expect = _coverage_reference(holed, p, 2000, seed=1)
    calls = []

    def counting(*args, **kw):
        calls.append(1)
        return linprog(*args, **kw)

    monkeypatch.setattr(qp, "linprog", counting)
    cov = coverage_check(holed, p, n_samples=2000, seed=1)
    assert cov == expect < 0.99
    assert len(calls) == 1


def _explore_reference(problem, theta_box):
    """explore with one Chebyshev LP and one redundancy pass per
    candidate, as each candidate's region was built before the LPs were
    stacked per segment."""
    rows = np.flatnonzero(np.linalg.norm(problem.G, axis=1) > ZERO_ROW_TOL)
    Nu = problem.Sigma.shape[0]
    Gb, wb = box_halfspaces(theta_box)
    regions = []
    for size in range(min(Nu, len(rows)) + 1):
        for A in combinations(rows.tolist(), size):
            try:
                K, g, Lam, lam_c = law_for_active_set(problem, A)
            except DegenerateActiveSet:
                continue
            inactive = [i for i in range(problem.G.shape[0]) if i not in A]
            E = np.vstack([-Lam, problem.G[inactive] @ K
                           - problem.S[inactive], Gb])
            e = np.concatenate([lam_c, problem.W[inactive]
                                - problem.G[inactive] @ g, wb])
            inner = chebyshev_center(E, e)
            if inner is None or inner[1] <= 1e-9:
                continue
            E, e, _ = remove_redundant(E, e, inner[0])
            regions.append((A, E, e, K, g))
    return regions


@pytest.mark.parametrize("config, n_segments", [
    ("synthesis_default.json", 9), ("horizon_Nc_eta5.json", 3)])
def test_explore_matches_per_candidate_reference(config, n_segments):
    """The per-segment stacked LPs give the tables of one LP per candidate:
    the same active sets in the same order and the same E/e/K/g bytes."""
    doc = json.loads((CONFIGS / config).read_text())
    doc = doc.get("synthesis", doc)
    *_, problems = _synthesis_objects(doc)
    box = _theta_box(doc)
    for problem in problems[:n_segments]:
        got = [(r.active_set, r.E, r.e, r.K, r.g)
               for r in explore(problem, box).regions]
        expect = _explore_reference(problem, box)
        assert [r[0] for r in got] == [r[0] for r in expect]
        for a, b in zip(got, expect):
            assert all(x.tobytes() == y.tobytes()
                       for x, y in zip(a[1:], b[1:]))


def test_export_import_json_bit_exact(tmp_path, solutions):
    sol = solutions[0]
    path = tmp_path / "t.json"
    export_table(sol, path, fmt="json")
    back = import_table(path)
    assert back.n_regions == sol.n_regions
    assert back.locate_tol == sol.locate_tol
    assert np.array_equal(back.theta_box, sol.theta_box)
    for a, b in zip(sol.regions, back.regions):
        assert np.array_equal(a.E, b.E)
        assert np.array_equal(a.e, b.e)
        assert np.array_equal(a.K, b.K)
        assert np.array_equal(a.g, b.g)
        assert a.active_set == b.active_set


def test_export_import_binary_bit_exact(tmp_path, solutions):
    sol = solutions[1]
    path = tmp_path / "t.bin"
    export_table(sol, path, fmt="bin")
    back = import_table(path)
    assert back.segment_index == sol.segment_index
    assert back.Nu == sol.Nu
    for a, b in zip(sol.regions, back.regions):
        assert np.array_equal(a.E, b.E)
        assert np.array_equal(a.e, b.e)
        assert np.array_equal(a.K, b.K)
        assert np.array_equal(a.g, b.g)
        assert a.active_set == b.active_set


def test_export_import_empty(tmp_path):
    empty = ExplicitSolution(regions=[], segment_index=3,
                             theta_box=DEFAULT_THETA_BOX.copy(), Nu=2)
    for fmt, name in (("json", "e.json"), ("bin", "e.bin")):
        path = tmp_path / name
        export_table(empty, path, fmt=fmt)
        back = import_table(path)
        assert back.n_regions == 0
        assert back.segment_index == 3


def test_export_rejects_unknown_format(tmp_path, solutions):
    with pytest.raises(ValueError):
        export_table(solutions[0], tmp_path / "t.x", fmt="xml")


def test_rounded_tolerance(solutions):
    sol = solutions[0]
    r3 = rounded(sol, 3)
    # box span: 1+1+3+1+3 = 9, so tol = 0.5e-3 * 10 = 5e-3
    assert r3.locate_tol == pytest.approx(5e-3)
    assert rounded(sol, None) is sol
    for a, b in zip(sol.regions, r3.regions):
        assert np.max(np.abs(a.K - b.K)) <= 5e-4 + 1e-15


def test_rounded_at_308_decimals_stays_finite():
    # np.round(x, 308) overflows for |x| > 1.8: such an entry has no digits
    # 308 places right of the point and is kept as it is
    big = np.array([[1.9, -123.456, 1e300, 0.5, 0.0]])
    region = CriticalRegion(E=big, e=np.array([2.5]), K=big,
                            g=np.array([-7.25]), active_set=())
    sol = ExplicitSolution([region], 1, DEFAULT_THETA_BOX.copy(), 1)
    r = rounded(sol, 308).regions[0]
    for k in "EeKg":
        assert np.array_equal(getattr(r, k), getattr(region, k))


def test_rounded_law_still_close(problems, solutions):
    rng = np.random.default_rng(17)
    for si in (0, 4, 8):
        p, sol = problems[si], solutions[si]
        r3 = rounded(sol, 3)
        done = 0
        while done < 1000:
            theta = rng.uniform(sol.theta_box[:, 0], sol.theta_box[:, 1])
            ref = solve_qp(DenseQp(p.Sigma, p.F @ theta, p.G,
                                   p.S @ theta + p.W))
            if ref.status != "optimal":
                continue
            done += 1
            idx = locate(r3, theta)
            assert idx is not None
            r = r3.regions[idx]
            assert np.allclose(r.K @ theta + r.g, ref.z_star, atol=0.02), \
                (si, theta)


def test_locate_ignores_region_order(solutions):
    rng = np.random.default_rng(23)
    for sol in (solutions[0], solutions[4]):
        r3 = rounded(sol, 3)
        thetas = rng.uniform(sol.theta_box[:, 0], sol.theta_box[:, 1],
                             size=(400, 5))

        def laws(table):
            out = []
            for theta in thetas:
                idx = locate(table, theta)
                r = None if idx is None else table.regions[idx]
                out.append(None if r is None else tuple(r.K @ theta + r.g))
            return out

        expect = laws(r3)
        for _ in range(4):
            order = rng.permutation(r3.n_regions)
            shuffled = ExplicitSolution(
                regions=[r3.regions[k] for k in order],
                segment_index=r3.segment_index, theta_box=r3.theta_box,
                Nu=r3.Nu, locate_tol=r3.locate_tol)
            assert laws(shuffled) == expect


def test_stored_reals_accounting():
    reg = CriticalRegion(E=np.zeros((4, 5)), e=np.zeros(4),
                         K=np.zeros((2, 5)), g=np.zeros(2),
                         active_set=())
    assert reg.stored_reals() == 20 + 4 + 10 + 2


@pytest.mark.xfail(
    reason="reference gain was derived under a per-step absolute-input "
    "convention; this toolkit's decision variables are accumulated "
    "current increments, so the feedback gain differs",
    strict=True)
def test_reference_unconstrained_gain(solutions):
    sol = solutions[8]
    reg = next(r for r in sol.regions if r.active_set == ())
    assert np.allclose(reg.K[0], [-2.263, 2.263, 0.938, 0.0, 0.0],
                       atol=5e-3)
