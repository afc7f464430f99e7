import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empcharge import model as mdl
from empcharge.model import NdcParams, NdcState
from empcharge.segments import DEFAULT_BREAKPOINTS


def test_ocv_endpoints(params):
    # h(0) = alpha0 = 3.2
    assert mdl.ocv(params, 0.0) == pytest.approx(3.2)
    # h(1) = sum of coefficients = 3.2+3.041-11.475+24.457-23.536+8.513 = 4.2
    assert mdl.ocv(params, 1.0) == pytest.approx(sum(params.alpha), abs=1e-12)
    assert mdl.ocv(params, 1.0) == pytest.approx(4.2, abs=0.05)


def test_ocv_mid(params):
    # direct evaluation at 0.6:
    # 3.2 + 3.041*0.6 - 11.475*0.36 + 24.457*0.216 - 23.536*0.1296
    #   + 8.513*0.07776 = 3.78800...
    assert mdl.ocv(params, 0.6) == pytest.approx(3.788, abs=1e-3)


def test_r0_values(params):
    # r0(1) = beta1 + beta2 = 0.09 + 0.35 = 0.44
    assert mdl.r0(params, 1.0) == pytest.approx(0.44)
    assert mdl.r0(params, 0.6) == pytest.approx(0.096, abs=1e-3)
    assert mdl.r0(params, 0.9) == pytest.approx(0.219, abs=1e-3)


def test_r0_monotone(params):
    vs = np.linspace(0.0, 1.0, 1000)
    r = mdl.r0(params, vs)
    assert np.all(np.diff(r) > 0)


def test_soc(params):
    assert mdl.soc(params, 0.5, 0.5) == pytest.approx(0.5)
    assert mdl.soc(params, 1.0, 1.0) == pytest.approx(1.0)
    # (9913*0.2 + 887*0.3) / 10800 = 2248.7/10800 = 0.2082129...
    assert mdl.soc(params, 0.2, 0.3) == pytest.approx(0.20821, abs=1e-5)


def test_capacity(params):
    # (9913 + 887) * 1 V = 10800 C = 3.0 Ah
    assert params.capacity == pytest.approx(10800.0)
    assert params.capacity / 3600.0 == pytest.approx(3.0)


def test_eta_gamma_zero(params):
    # gamma1 = 0 collapses the coefficients to -Vb + Vs
    for vb, vs in [(0.1, 0.5), (0.7, 0.2), (0.3, 0.3)]:
        assert mdl.eta(params, 0.0, vb, vs) == pytest.approx(vs - vb)


def test_eta_equals_identity(params):
    # eta = (Vs - Vb) - gamma1*SoC; at gamma1=-0.04, Vb=Vs=0.5 this is
    # 0 + 0.04*0.5 = 0.02
    val = mdl.eta(params, -0.04, 0.5, 0.5)
    assert val == pytest.approx(0.02, abs=1e-12)


def test_eta_constraint_equivalence(params):
    # eta <= gamma2 iff Vs - Vb <= gamma1*SoC + gamma2
    rng = np.random.default_rng(3)
    gamma1, gamma2 = -0.04, 0.08
    for _ in range(10_000):
        vb, vs = rng.uniform(0, 1, 2)
        lhs = mdl.eta(params, gamma1, vb, vs) <= gamma2
        rhs = (vs - vb) <= gamma1 * mdl.soc(params, vb, vs) + gamma2
        assert lhs == rhs


def test_terminal_voltage(params):
    assert mdl.terminal_voltage(params, NdcState(0.0, 0.0, 0.0)) == \
        pytest.approx(3.2)
    # 3.788 + 0.096*3
    assert mdl.terminal_voltage(params, NdcState(0.5, 0.6, 3.0)) == \
        pytest.approx(4.077, abs=5e-3)
    # discharge: 3.788 - 0.289
    assert mdl.terminal_voltage(params, NdcState(0.5, 0.6, -3.0)) == \
        pytest.approx(3.499, abs=5e-3)


def test_discretize_identity_limit(params):
    m = mdl.discretize(params, 1e-9)
    assert np.allclose(m.A_d, np.eye(2), atol=1e-6)
    assert np.allclose(m.B_d, 0.0, atol=1e-6)


def test_discretize_eigenvalues(params, dmodel):
    # mu = -10800/(9913*887*0.025) = -0.0491307...
    mu = -10800.0 / (9913.0 * 887.0 * 0.025)
    ev = np.sort(np.linalg.eigvals(dmodel.A_d))
    assert ev[0] == pytest.approx(np.exp(60 * mu), abs=1e-10)
    assert ev[1] == pytest.approx(1.0, abs=1e-10)
    assert np.exp(60 * mu) == pytest.approx(0.0524, abs=1e-3)


def test_discretize_row_sums(params):
    for dt in (1.0, 60.0, 3600.0):
        m = mdl.discretize(params, dt)
        assert np.allclose(m.A_d.sum(axis=1), 1.0, atol=1e-12)


def test_discretize_rejects_bad_dt(params):
    with pytest.raises(ValueError):
        mdl.discretize(params, 0.0)


def test_augmented_shape(dmodel):
    assert dmodel.A_aug.shape == (3, 3)
    assert np.allclose(dmodel.A_aug[:2, :2], dmodel.A_d)
    assert np.allclose(dmodel.A_aug[:2, 2], dmodel.B_d.ravel())
    assert np.allclose(dmodel.A_aug[2], [0, 0, 1])
    assert np.allclose(dmodel.B_aug.ravel(), [0, 0, 1])


@pytest.mark.parametrize("x", [[0.2, 0.2, 0.0], [0.31, 0.35, 2.7],
                               [0.9, 0.93, 0.4]])
def test_step_move_reaches_only_the_current(dmodel, x):
    """Vb and Vs one step on do not depend on the move, to the bit: the
    NMPC step and the switch guard read them from a zero move."""
    x = np.array(x)
    ref = dmodel.step(x, 0.0)
    for du in (-3.0, -0.7, 1e-9, 0.25, 3.0):
        nxt = dmodel.step(x, du)
        assert nxt[:2].tobytes() == ref[:2].tobytes()
        assert nxt[2] == ref[2] + du


def test_step_equilibrium(params, dmodel):
    x0 = NdcState(0.4, 0.4, 0.0)
    x1, _ = mdl.step_nonlinear(params, dmodel, x0, 0.0)
    assert x1.Vb == pytest.approx(0.4, abs=1e-14)
    assert x1.Vs == pytest.approx(0.4, abs=1e-14)
    assert x1.I == 0.0


def test_step_soc_increment(params, dmodel):
    # one 60 s interval at 3 A from rest moves 180 C out of 10800 C,
    # i.e. SoC rises by 1.6667 percentage points
    x = NdcState(0.2, 0.2, 3.0)
    x1, y1 = mdl.step_nonlinear(params, dmodel, x, 0.0)
    soc0 = mdl.soc(params, 0.2, 0.2)
    assert y1.soc - soc0 == pytest.approx(180.0 / 10800.0, abs=1e-12)


def test_vs_dominates_vb_when_charging(params, dmodel):
    x = NdcState(0.2, 0.2, 3.0)
    for _ in range(50):
        x, _ = mdl.step_nonlinear(params, dmodel, x, 0.0)
        assert x.Vs >= x.Vb


def test_coulomb_conservation(params, dmodel):
    rng = np.random.default_rng(11)
    x = NdcState(0.2, 0.2, 0.0)
    total = 0.0
    soc0 = mdl.soc(params, x.Vb, x.Vs)
    for _ in range(200):
        total += x.I * dmodel.dt
        x, _ = mdl.step_nonlinear(params, dmodel, x, rng.uniform(-0.2, 0.2))
    got = params.capacity * (mdl.soc(params, x.Vb, x.Vs) - soc0)
    assert got == pytest.approx(total, rel=1e-9, abs=1e-9)


def test_half_step_agreement(params, dmodel):
    # ZOH is exact for piecewise-constant input, so dt and two dt/2 steps
    # must land on the same state
    half = mdl.discretize(params, 30.0)
    x = NdcState(0.3, 0.35, 1.5)
    a, _ = mdl.step_nonlinear(params, dmodel, x, 0.0)
    b, _ = mdl.step_nonlinear(params, half, x, 0.0)
    b, _ = mdl.step_nonlinear(params, half, b, 0.0)
    assert abs(a.Vb - b.Vb) < 1e-10
    assert abs(a.Vs - b.Vs) < 1e-10


def test_params_validation():
    with pytest.raises(ValueError):
        NdcParams(Cb=-1.0)
    with pytest.raises(ValueError):
        NdcParams(Rb=0.0, Rs=0.0)
    with pytest.raises(ValueError):
        NdcParams(Cb=100.0, Cs=200.0)


def test_params_from_dict_rejects_unknown():
    with pytest.raises(ValueError):
        NdcParams.from_dict({"Cb": 9913.0, "bogus": 1.0})


def test_params_from_dict_alpha_keys():
    p = NdcParams.from_dict({"alpha0": 1.0, "alpha1": 2.0})
    assert p.alpha == (1.0, 2.0, 0.0, 0.0, 0.0, 0.0)


# References: the np.polyval forms that ocv and ocv_slope replaced.  The
# Horner loops repeat polyval's operations in its order, so the values are
# equal, not close.
def _ocv_reference(params, vs):
    return np.polyval(params.alpha[::-1], vs)


def _ocv_slope_reference(params, vs):
    deriv = [i * a for i, a in enumerate(params.alpha)][1:]
    return np.polyval(deriv[::-1], vs)


# [0, 1] on a fine grid, with every default operating point
_VS_GRID = np.union1d(np.linspace(0.0, 1.0, 1001),
                      [op for _, _, op in DEFAULT_BREAKPOINTS])


@pytest.mark.parametrize("fn, ref", [(mdl.ocv, _ocv_reference),
                                     (mdl.ocv_slope, _ocv_slope_reference)])
def test_ocv_maps_equal_polyval(params, fn, ref):
    for vs in _VS_GRID.tolist():
        value = fn(params, vs)
        assert type(value) is float  # no numpy scalar on a Python float
        assert value == ref(params, vs)
    for vs in _VS_GRID:
        assert isinstance(vs, np.float64)
        assert fn(params, vs) == ref(params, vs)
    assert np.array_equal(fn(params, _VS_GRID), ref(params, _VS_GRID))


@settings(max_examples=200, deadline=None)
@given(alpha=st.lists(st.floats(-50.0, 50.0), min_size=6, max_size=6),
       vs=st.floats(-2.0, 2.0))
def test_ocv_maps_equal_polyval_any_coefficients(alpha, vs):
    params = NdcParams(alpha=tuple(alpha))
    assert mdl.ocv(params, vs) == _ocv_reference(params, vs)
    assert mdl.ocv_slope(params, vs) == _ocv_slope_reference(params, vs)


def test_step_equals_augmented_product(dmodel):
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, du = rng.uniform(-1.0, 3.0, 3), float(rng.uniform(-3.0, 3.0))
        ref = dmodel.A_aug @ x + dmodel.B_aug.ravel() * du
        assert np.array_equal(dmodel.step(x, du), ref)
        assert np.array_equal(dmodel.step(x.tolist(), du), ref)
