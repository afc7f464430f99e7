"""Double-capacitor battery model: continuous dynamics, exact discretization,
augmented rate-input form, and the nonlinear output map.

State is x = [Vb, Vs, I] where Vb is the bulk-capacitor voltage, Vs the
surface-capacitor voltage and I the applied current (positive = charging).
The voltage dynamics are linear; only the output map (open-circuit voltage
polynomial and Vs-dependent series resistance) is nonlinear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "NdcParams",
    "NdcState",
    "OutputVector",
    "DiscreteModel",
    "ocv",
    "ocv_slope",
    "r0",
    "r0_slope",
    "soc",
    "eta",
    "terminal_voltage",
    "discretize",
    "step_nonlinear",
    "output_vector",
]

# default slope and offset of the constraint Vs - Vb <= GAMMA1*SoC + GAMMA2
GAMMA1, GAMMA2 = -0.04, 0.08


@dataclass(frozen=True)
class NdcParams:
    """Physical battery parameters.

    alpha holds the open-circuit-voltage polynomial coefficients, lowest
    order first: h(Vs) = sum_i alpha[i] * Vs**i.
    """

    Cb: float = 9913.0
    Cs: float = 887.0
    Rb: float = 0.025
    Rs: float = 0.0
    alpha: tuple[float, ...] = (3.2, 3.041, -11.475, 24.457, -23.536, 8.513)
    beta1: float = 0.09
    beta2: float = 0.35
    beta3: float = 10.0

    def __post_init__(self) -> None:
        if self.Cb <= 0 or self.Cs <= 0:
            raise ValueError("capacitances must be positive")
        if self.Rb + self.Rs <= 0:
            raise ValueError("Rb + Rs must be positive")
        if self.beta1 <= 0 or self.beta2 <= 0 or self.beta3 <= 0:
            raise ValueError("beta coefficients must be positive")
        if self.Cb <= self.Cs:
            raise ValueError("expected Cb > Cs")

    @property
    def capacity(self) -> float:
        """Total charge capacity in coulombs; full charge is Vb = Vs = 1."""
        return self.Cb + self.Cs

    @classmethod
    def from_dict(cls, d: dict) -> "NdcParams":
        """Build from a flat key-value mapping with alpha0..alpha5 keys."""
        known = {f.name for f in fields(cls)} - {"alpha"}
        alpha_keys = {f"alpha{i}" for i in range(6)}
        unknown = set(d) - known - alpha_keys
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        kwargs = {k: v for k, v in d.items() if k in known}
        if any(k in d for k in alpha_keys):
            kwargs["alpha"] = tuple(d.get(f"alpha{i}", 0.0) for i in range(6))
        return cls(**kwargs)


@dataclass(frozen=True)
class NdcState:
    Vb: float
    Vs: float
    I: float

    def as_array(self) -> np.ndarray:
        return np.array([self.Vb, self.Vs, self.I])


@dataclass(frozen=True, slots=True)
class OutputVector:
    """y = [SoC, Vs, I, V, eta]."""

    soc: float
    Vs: float
    I: float
    V: float
    eta: float


@dataclass(frozen=True)
class DiscreteModel:
    """Exact zero-order-hold discretization in augmented form.

    A_aug = [[A_d, B_d], [0, 0, 1]] with the voltage subsystem's A_d, B_d.
    The augmented input, the current increment du_k = I_{k+1} - I_k,
    enters the current entry alone: its input map is the unit vector e_2,
    in the plant's step and in the MPC predictor (mpqp._prediction_maps).
    """

    A_aug: np.ndarray
    dt: float

    def step(self, x: np.ndarray, du: float) -> np.ndarray:
        """Augmented state one step on: A_aug x + e_2 du."""
        x = self.A_aug @ x
        x[2] += du
        return x


# The four maps below take Vs as a float or an array: a scalar gives a
# scalar, an array an array.  The closed loop calls them on one Python
# float per step, where numpy's dispatch costs more than the arithmetic,
# so the OCV polynomial runs by Horner's rule in Python.  That is
# np.polyval's multiply-then-add sequence from a zero start, so the values
# are bit-identical to it.

def ocv(params: NdcParams, Vs: float | np.ndarray) -> float | np.ndarray:
    """Open-circuit voltage h(Vs), fifth-order polynomial."""
    h = 0.0
    for a in reversed(params.alpha):
        h = h * Vs + a
    return h


def ocv_slope(params: NdcParams, Vs: float | np.ndarray) -> float | np.ndarray:
    """dh/dVs."""
    h = 0.0
    for i in range(len(params.alpha) - 1, 0, -1):
        h = h * Vs + i * params.alpha[i]
    return h


def r0(params: NdcParams, Vs: float | np.ndarray) -> float | np.ndarray:
    """Series resistance beta1 + beta2*exp(-beta3*(1 - Vs))."""
    return params.beta1 + params.beta2 * np.exp(-params.beta3 * (1.0 - Vs))


def r0_slope(params: NdcParams, Vs: float | np.ndarray) -> float | np.ndarray:
    """dR0/dVs."""
    return params.beta2 * params.beta3 * np.exp(-params.beta3 * (1.0 - Vs))


def soc(params: NdcParams, Vb: float, Vs: float) -> float:
    """State of charge, capacity-weighted average of the two voltages."""
    return (params.Cb * Vb + params.Cs * Vs) / (params.Cb + params.Cs)


def eta(params: NdcParams, gamma1: float, Vb: float, Vs: float) -> float:
    """Constraint-combination variable: eta <= gamma2 encodes
    Vs - Vb <= gamma1*SoC + gamma2."""
    ct = params.Cb + params.Cs
    return (-(params.Cb + gamma1 * params.Cb + params.Cs) / ct * Vb
            + (ct - gamma1 * params.Cs) / ct * Vs)


def terminal_voltage(params: NdcParams, state: NdcState) -> float:
    return ocv(params, state.Vs) + r0(params, state.Vs) * state.I


def output_vector(params: NdcParams, state: NdcState,
                  gamma1: float = GAMMA1) -> OutputVector:
    return OutputVector(float(soc(params, state.Vb, state.Vs)),
                        float(state.Vs), float(state.I),
                        float(terminal_voltage(params, state)),
                        float(eta(params, gamma1, state.Vb, state.Vs)))


def continuous_matrices(params: NdcParams) -> tuple[np.ndarray, np.ndarray]:
    """Continuous-time A (2x2) and B (2x1) of the voltage subsystem."""
    rt = params.Rb + params.Rs
    A = np.array([
        [-1.0 / (params.Cb * rt), 1.0 / (params.Cb * rt)],
        [1.0 / (params.Cs * rt), -1.0 / (params.Cs * rt)],
    ])
    B = np.array([
        [params.Rs / (params.Cb * rt)],
        [params.Rb / (params.Cs * rt)],
    ])
    return A, B


def discretize(params: NdcParams, dt: float) -> DiscreteModel:
    """Exact ZOH discretization.

    A has eigenvalues {0, mu} with mu = -(Cb+Cs)/(Cb*Cs*(Rb+Rs)) and
    satisfies A@A = mu*A, so the matrix exponential has the closed form
    exp(A t) = I + (exp(mu t) - 1)/mu * A.

    The closed form divides by mu**2, so parameters whose mu**2 underflows
    to 0 or overflows are refused.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    A, B = continuous_matrices(params)
    mu = -(params.Cb + params.Cs) / (params.Cb * params.Cs
                                     * (params.Rb + params.Rs))
    if not 0.0 < mu * mu < math.inf:
        raise ValueError(f"Cb, Cs, Rb and Rs give mu = {mu:.3g}, whose "
                         "square is 0 or not finite")
    em = math.exp(mu * dt)
    A_d = np.eye(2) + (em - 1.0) / mu * A
    # integral of exp(A tau) over [0, dt], using the same identity
    B_d = (dt * np.eye(2) + (em - 1.0 - mu * dt) / mu**2 * A) @ B
    A_aug = np.zeros((3, 3))
    A_aug[:2, :2] = A_d
    A_aug[:2, 2:] = B_d
    A_aug[2, 2] = 1.0
    return DiscreteModel(A_aug=A_aug, dt=dt)


def step_nonlinear(params: NdcParams, model: DiscreteModel, state: NdcState,
                   du: float, gamma1: float = GAMMA1,
                   ) -> tuple[NdcState, OutputVector]:
    """One discrete step x+ = A_aug x + e_2 du; output is evaluated
    through the nonlinear map at the new state."""
    x = model.step(state.as_array(), du)
    new = NdcState(Vb=float(x[0]), Vs=float(x[1]), I=float(x[2]))
    return new, output_vector(params, new, gamma1)
