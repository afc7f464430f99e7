import numpy as np
import pytest

from empcharge.mpqp import MpqpProblem
from empcharge.qp import DenseQp, solve_qp
from empcharge.regions import (DEFAULT_THETA_BOX, CriticalRegion,
                               ExplicitSolution, coverage_check, explore,
                               export_table, import_table, law_for_active_set,
                               locate, region_for, rounded)


def _toy_problem():
    """min 0.5 z^2 + theta_0 z  s.t.  -1 <= z <= 1.

    Optimizer: z* = clip(-theta_0, -1, 1) -> exactly three critical
    regions over theta_0 in [-3, 3].
    """
    return MpqpProblem(
        Sigma=np.array([[1.0]]),
        F=np.array([[1.0, 0.0, 0.0, 0.0, 0.0]]),
        Y=np.zeros((5, 5)),
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
            ref = region_for(p, r.interior, sol.theta_box)
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
            assert r.interior is not None and r.radius > 1e-9
            for j, other in enumerate(sol.regions):
                if i == j:
                    continue
                # strict interior of one region is outside every other
                assert not np.all(other.E @ r.interior
                                  <= other.e - 1e-12)


def test_coverage(problems, solutions):
    for p, sol in zip(problems[:3], solutions[:3]):
        assert coverage_check(sol, p, n_samples=20000) == pytest.approx(
            1.0, abs=1e-6)


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
