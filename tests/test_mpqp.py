import json
from pathlib import Path

import numpy as np
import pytest

from empcharge.model import NdcState
from empcharge.mpqp import MpcConfig, _prediction_maps, assemble_theta, build
from empcharge.qp import DenseQp, solve_qp

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# the configs that stretch N, Nu and Nc_eta beyond the default horizon
HORIZONS = ["horizon_N90", "horizon_Nu9", "horizon_Nc_eta9"]


def _bounds(cfg):
    """Reference lower and upper bounds on [SoC, Vs, I, V, eta]."""
    return (np.array([-np.inf, -np.inf, 0.0, -np.inf, -np.inf]),
            np.array([np.inf, 0.95, 3.0, 4.2, cfg.gamma2]))


def _mpc_block(name):
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    return MpcConfig(**doc["synthesis"]["mpc"])


def _increment(cfg, theta, z, k):
    """Augmented-model input at step k: the held previous move plus all
    decision moves taken so far."""
    return theta[4] + float(np.sum(z[:min(k + 1, cfg.Nu)]))


def _simulate_cost(model, seg, cfg, theta, z):
    """Condensed cost recomputed by rolling the augmented model forward."""
    x = np.array([theta[0], theta[1], theta[2]])
    r = theta[3]
    cost = 0.0
    c_soc = seg.C_mat[0]
    for k in range(cfg.N):
        soc_k = float(c_soc @ x)
        cost += 0.5 * cfg.Q * (soc_k - r) ** 2
        x = (model.A_aug @ x
             + model.B_aug.ravel() * _increment(cfg, theta, z, k))
    cost += 0.5 * cfg.R * float(z @ z)
    return cost


def _theta_map(model, seg, cfg, theta, z):
    """Outputs y_k for k = 1..N via direct simulation."""
    x = np.array([theta[0], theta[1], theta[2]])
    ys = []
    for k in range(cfg.N):
        x = (model.A_aug @ x
             + model.B_aug.ravel() * _increment(cfg, theta, z, k))
        ys.append(seg.C_mat @ x + seg.D_vec)
    return ys


def test_shapes(problems, cfg):
    for p in problems:
        assert p.Sigma.shape == (cfg.Nu, cfg.Nu)
        assert p.F.shape == (cfg.Nu, 5)
        m = p.G.shape[0]
        assert p.S.shape == (m, 5)
        assert p.W.shape == (m,)
        assert len(p.labels) == m
        # Sigma positive definite
        assert np.all(np.linalg.eigvalsh(p.Sigma) > 0)


def test_row_count_default(problems, cfg):
    # k=1: Vs<=, I<= and I>=, V<= plus eta<=; k=2: eta<= only -> 6 rows
    assert problems[0].G.shape[0] == 6


def test_trivial_horizon():
    # N=1, Nu=1, Q=0: cost reduces to 0.5*R*du^2 so Sigma = [[R]], F = 0
    from empcharge.model import default_params, discretize
    from empcharge.segments import default_table
    model = discretize(default_params(), 60.0)
    seg = default_table().segments[0]
    cfg = MpcConfig(N=1, Nu=1, Nc_eta=1, Nc_other=1, Q=0.0, R=0.1)
    p = build(model, seg, cfg)
    assert p.Sigma == pytest.approx(np.array([[0.1]]))
    assert np.allclose(p.F, 0.0, atol=1e-14)


def _theta_cost(dmodel, seg, cfg):
    """Y of the cost's theta-only term 0.5 theta'Y theta, which build
    leaves out: the tracking errors SoC_k - r at z = 0 are lin @ theta."""
    Xx, Xu, _ = _prediction_maps(dmodel, cfg.N, cfg.Nu)
    c_soc = seg.C_mat[0]
    lin = np.column_stack([c_soc @ Xx[:cfg.N], -np.ones(cfg.N),
                           Xu[:cfg.N] @ c_soc])
    return cfg.Q * (lin.T @ lin)


def _check_cost_oracle(dmodel, seg, cfg, p):
    # 0.5 z'Sigma z + theta'F'z + 0.5 theta'Y theta must equal the rolled-out
    # tracking cost for arbitrary (theta, z)
    Y = _theta_cost(dmodel, seg, cfg)
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta = rng.uniform([0, 0, 0, 0.2, -3], [1, 1, 3, 1, 3])
        z = rng.uniform(-1, 1, cfg.Nu)
        condensed = (0.5 * z @ p.Sigma @ z + theta @ p.F.T @ z
                     + 0.5 * theta @ Y @ theta)
        direct = _simulate_cost(dmodel, seg, cfg, theta, z)
        assert condensed == pytest.approx(direct, abs=1e-8)


def test_cost_oracle(dmodel, table, cfg, problems):
    _check_cost_oracle(dmodel, table.segments[1], cfg, problems[1])


@pytest.mark.parametrize("name", HORIZONS)
def test_cost_oracle_horizons(dmodel, table, name):
    cfg, seg = _mpc_block(name), table.segments[1]
    _check_cost_oracle(dmodel, seg, cfg, build(dmodel, seg, cfg))


def _check_constraint_oracle(dmodel, seg, cfg, p):
    # G z <= S theta + W holds exactly when the simulated outputs satisfy
    # the bounds at their constraint steps
    rng = np.random.default_rng(6)
    lo, hi = _bounds(cfg)
    for _ in range(20):
        theta = rng.uniform([0, 0, 0, 0.2, -3], [1, 1, 3, 1, 3])
        z = rng.uniform(-1, 1, cfg.Nu)
        lhs = p.G @ z
        rhs = p.S @ theta + p.W
        ys = _theta_map(dmodel, seg, cfg, theta, z)
        for row_idx, label in enumerate(p.labels):
            name, at = label.split(" @k=")
            k = int(at)
            row = ["soc", "Vs", "I", "V", "eta"].index(
                name.rstrip("<=>").rstrip("<>="))
            y = ys[k - 1][row]
            margin = rhs[row_idx] - lhs[row_idx]
            if label.split(" ")[0].endswith("<="):
                assert margin == pytest.approx(hi[row] - y, abs=1e-8)
            else:
                assert margin == pytest.approx(y - lo[row], abs=1e-8)


def test_constraint_oracle(dmodel, table, cfg, problems):
    _check_constraint_oracle(dmodel, table.segments[4], cfg, problems[4])


@pytest.mark.parametrize("name", HORIZONS)
def test_constraint_oracle_horizons(dmodel, table, name):
    cfg, seg = _mpc_block(name), table.segments[4]
    _check_constraint_oracle(dmodel, seg, cfg, build(dmodel, seg, cfg))


def _loop_prediction_maps(model, N, Nu):
    """The condensing maps summed term by term:
    Xz[k][:, j] = sum_{i=j}^{k-1} A^(k-1-i) B."""
    A, B = model.A_aug, model.B_aug
    powers = [np.eye(3)]
    for _ in range(N):
        powers.append(A @ powers[-1])
    Xx, Xu, Xz = [], [], []
    for k in range(N + 1):
        Xx.append(powers[k])
        acc = np.zeros(3)
        M = np.zeros((3, Nu))
        for i in range(k):
            col = (powers[k - 1 - i] @ B).ravel()
            acc += col
            for j in range(min(i + 1, Nu)):
                M[:, j] += col
        Xu.append(acc)
        Xz.append(M)
    return np.array(Xx), np.array(Xu), np.array(Xz)


def test_prediction_maps_closed_form(dmodel):
    N, Nu = 90, 9
    got = _prediction_maps(dmodel, N, Nu)
    want = _loop_prediction_maps(dmodel, N, Nu)
    for g, w, shape in zip(got, want, [(N + 1, 3, 3), (N + 1, 3),
                                       (N + 1, 3, Nu)]):
        assert g.shape == shape
        assert np.allclose(g, w, rtol=0.0, atol=1e-12)


def test_default_row_order(problems):
    # stored active sets index these rows, so their order is part of the
    # table format
    assert problems[0].labels == ("Vs<= @k=1", "I<= @k=1", "I>= @k=1",
                                  "V<= @k=1", "eta<= @k=1", "eta<= @k=2")


def test_eta_horizon_deeper_than_others(problems, cfg):
    labels = problems[0].labels
    assert "eta<= @k=2" in labels
    assert all("@k=2" not in lab or lab.startswith("eta") for lab in labels)


def test_assemble_theta_round_trip():
    x = NdcState(0.3, 0.4, 1.2)
    th = assemble_theta(x, 0.9, -0.5)
    assert np.array_equal(th, [0.3, 0.4, 1.2, 0.9, -0.5])


def test_config_validation():
    with pytest.raises(ValueError):
        MpcConfig(N=2, Nu=3)
    with pytest.raises(ValueError):
        MpcConfig(Nc_eta=0)
    with pytest.raises(ValueError):
        MpcConfig(N=5, Nc_eta=6)
    with pytest.raises(ValueError):
        MpcConfig(R=0.0)


def test_build_deterministic(dmodel, table, cfg, problems):
    p2 = build(dmodel, table.segments[0], cfg)
    p1 = problems[0]
    assert np.array_equal(p1.Sigma, p2.Sigma)
    assert np.array_equal(p1.F, p2.F)
    assert np.array_equal(p1.G, p2.G)
    assert np.array_equal(p1.S, p2.S)
    assert np.array_equal(p1.W, p2.W)


def test_qp_solution_respects_sim_constraints(dmodel, table, cfg, problems):
    # solve the condensed QP at a few parameters and confirm the optimal
    # move sequence keeps the simulated outputs inside bounds
    rng = np.random.default_rng(8)
    lo, hi = _bounds(cfg)
    p = problems[0]
    seg = table.segments[0]
    done = 0
    while done < 10:
        theta = rng.uniform([0.2, 0.2, 0, 0.2, -1], [0.5, 0.5, 3, 1, 1])
        sol = solve_qp(DenseQp(p.Sigma, p.F @ theta, p.G,
                               p.S @ theta + p.W))
        if sol.status != "optimal":
            continue
        done += 1
        ys = _theta_map(dmodel, seg, cfg, theta, sol.z_star)
        for k in range(1, 2 + 1):
            y = ys[k - 1]
            if k <= cfg.Nc_other:
                assert y[1] <= hi[1] + 1e-7
                assert -1e-7 <= y[2] <= hi[2] + 1e-7
                assert y[3] <= hi[3] + 1e-7
            if k <= cfg.Nc_eta:
                assert y[4] <= hi[4] + 1e-7
