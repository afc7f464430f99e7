"""Closed-loop charging: explicit-MPC law, online-QP and relinearized-NMPC
baselines, EKF output feedback, and the simulation loop.

Controller semantics per step, given state x = [Vb, Vs, I], target r and the
previous move u_prev: pick the segment for x.Vs, evaluate the law at
theta = [Vb, Vs, I, r, u_prev] to get du0, and apply

    I_next = clip(u_prev + du0 + I, I_MIN, I_MAX),

the first step of the move convention in the mpqp module docstring.  Each
step returns the move it applied, I_next - I, as the next step's u_prev.

The move reaches the current only after the A_aug product
(DiscreteModel.step), so the surface voltage one step on is fixed by the
state alone.  Because the segment law is linearized at a fixed operating
point, a step whose predicted surface voltage crosses into the next segment
can slightly under-predict terminal voltage.  A switch guard re-evaluates
the law of the segment owning the predicted Vs and keeps the smaller
current, preserving the conservatism of the upper-end R0 choice across
switches.  The NMPC baseline linearizes h and R0 at that predicted Vs
instead, and solves one QP per step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from . import model as mdl
from .model import DiscreteModel, NdcParams, NdcState
from .mpqp import I_MAX, I_MIN, MpcConfig, MpqpProblem, assemble_theta, build
from .qp import load_scipy, solve_qp
from .regions import ExplicitSolution, _atomic_write, locate
from .segments import SegmentTable, select_segment, _segment

__all__ = [
    "EkfState",
    "StepResult",
    "TraceRow",
    "SimTrace",
    "RunSetup",
    "empc_step",
    "online_mpc_step",
    "nmpc_step",
    "ekf_step",
    "run_closed_loop",
]

CONTROLLERS = ("empc", "qp", "nmpc")
FEEDBACKS = ("state", "ekf")
COMPLETION_SLACK = 0.005  # done once the estimated SoC is this near target
# noisy runs: plant process variance per state, voltage measurement variance
PROCESS_VAR, MEAS_VAR = 1e-6, 9e-6
# EKF tuning: the controller drives the current, so the filter's current
# channel is far below the plant's PROCESS_VAR on purpose
EKF_Q, EKF_R = np.diag([PROCESS_VAR, PROCESS_VAR, 1e-12]), MEAS_VAR
_EYE3 = np.eye(3)


@dataclass
class StepResult:
    I_next: float
    du_applied: float
    segment: int
    region: int | None
    fallback: bool
    iterations: int = 1  # QPs solved; perfbench's nmpc_step note reads it


@dataclass
class EkfState:
    x_hat: np.ndarray
    P: np.ndarray


def default_ekf(x0: np.ndarray) -> EkfState:
    return EkfState(x_hat=np.array(x0, float), P=np.eye(3) * 1e-4)


def _predicted_vs(model: DiscreteModel, x: NdcState) -> float:
    """Vs one step on, which no move changes (DiscreteModel.step)."""
    return float(model.step(x.as_array(), 0.0)[1])


def _current(u_prev: float, x: NdcState, du0: float) -> float:
    """Saturated next current for the move du0."""
    return min(max(u_prev + du0 + x.I, I_MIN), I_MAX)


def _result(u_prev: float, x: NdcState, segment: int, du0: float | None,
            region: int | None) -> StepResult:
    """The step of the move du0, saturated; du0 None (no region holds
    theta, or no QP solution) is the fallback move du0 = 0."""
    I_next = _current(u_prev, x, 0.0 if du0 is None else du0)
    return StepResult(I_next, float(I_next - x.I), segment, region,
                      du0 is None)


def _finish(move_of_segment, model: DiscreteModel, table: SegmentTable,
            u_prev: float, x: NdcState, r: float) -> StepResult:
    """Shared part of the eMPC/online-QP steps: the governing segment's
    move_of_segment(segment, theta) -> (du0, region), then the guard."""
    theta = assemble_theta(x, r, u_prev)
    si = select_segment(table, x.Vs)
    res = _result(u_prev, x, si, *move_of_segment(si, theta))
    sj = select_segment(table, _predicted_vs(model, x))
    if sj != si:  # the switch guard: the smaller current, si's on a tie
        res = min(res, _result(u_prev, x, sj, *move_of_segment(sj, theta)),
                  key=lambda s: s.I_next)
    return res


def empc_step(solutions: list[ExplicitSolution], table: SegmentTable,
              model: DiscreteModel, u_prev: float, x: NdcState,
              r: float) -> StepResult:
    def move(si: int, th: np.ndarray):
        idx = locate(solutions[si], th)
        if idx is None:
            return None, None
        reg = solutions[si].regions[idx]
        return float(reg.K[0] @ th + reg.g[0]), idx

    return _finish(move, model, table, u_prev, x, r)


def online_mpc_step(problems: list[MpqpProblem], table: SegmentTable,
                    model: DiscreteModel, u_prev: float, x: NdcState,
                    r: float) -> StepResult:
    def move(si: int, th: np.ndarray):
        sol = solve_qp(problems[si].qp(th))
        return (float(sol.z_star[0]) if sol.status == "optimal" else None,
                None)

    return _finish(move, model, table, u_prev, x, r)


def nmpc_step(params: NdcParams, model: DiscreteModel, table: SegmentTable,
              cfg: MpcConfig, u_prev: float, x: NdcState, r: float,
              ) -> StepResult:
    """Relinearized MPC: linearize h and R0 at the next step's Vs, which
    the state alone fixes, instead of at the table's fixed operating
    points, so the first step's V<= row is exact; then solve that one QP."""
    vs_next = min(max(_predicted_vs(model, x), 0.0), 1.0)
    seg = _segment(params, 0, 0.0, 1.0, vs_next, table.gamma1)
    sol = solve_qp(build(model, seg, cfg).qp(assemble_theta(x, r, u_prev)))
    du0 = float(sol.z_star[0]) if sol.status == "optimal" else None
    return _result(u_prev, x, select_segment(table, x.Vs), du0, None)


def ekf_step(params: NdcParams, model: DiscreteModel, ekf: EkfState,
             du_applied: float, V_measured: float) -> EkfState:
    """One predict-update cycle with terminal voltage as the measurement.
    The output maps run on the prediction as Python floats.  The 3x3
    products stay numpy in this association: a noisy charge can turn on
    one ulp (a point location that hits or misses), so their order is
    kept."""
    A = model.A_aug
    x_pred = model.step(ekf.x_hat, du_applied)
    P_pred = A @ ekf.P @ A.T + EKF_Q
    pred = NdcState(*x_pred.tolist())
    H = np.array([0.0,
                  mdl.ocv_slope(params, pred.Vs)
                  + float(mdl.r0_slope(params, pred.Vs)) * pred.I,
                  float(mdl.r0(params, pred.Vs))])
    V_pred = mdl.terminal_voltage(params, pred)
    S = float(H @ P_pred @ H) + EKF_R
    K = P_pred @ H / S
    x_new = x_pred + K * (V_measured - V_pred)
    P_new = (_EYE3 - np.outer(K, H)) @ P_pred
    P_new = 0.5 * (P_new + P_new.T)
    return EkfState(x_hat=x_new, P=P_new)


@dataclass(frozen=True)
class TraceRow:
    step: int
    time_s: float
    Vb: float
    Vs: float
    I: float
    V: float
    SoC: float
    eta: float
    segment: int
    region: int
    du: float
    solver_time_ns: int
    fallback_flag: int


_CSV_FIELDS = tuple(f.name for f in fields(TraceRow))
CSV_HEADER = ",".join(_CSV_FIELDS)


@dataclass
class SimTrace:
    rows: list[TraceRow]
    completed: bool

    @property
    def charging_steps(self) -> int:
        return len(self.rows)

    @property
    def fallback_count(self) -> int:
        return sum(r.fallback_flag for r in self.rows)

    def soc_series(self) -> np.ndarray:
        return np.array([r.SoC for r in self.rows])

    def to_csv(self, path) -> None:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join(str(getattr(r, f)) for f in _CSV_FIELDS))
        _atomic_write(path, ("\n".join(lines) + "\n").encode())


@dataclass
class RunSetup:
    params: NdcParams
    model: DiscreteModel
    table: SegmentTable
    cfg: MpcConfig
    controller: str = "empc"            # one of CONTROLLERS
    feedback: str = "state"             # one of FEEDBACKS
    solutions: list[ExplicitSolution] | None = None
    problems: list[MpqpProblem] | None = None
    soc_start: float = 0.2
    soc_target: float = 0.9
    step_budget: int = 150
    stop_at_target: bool = True
    noise: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        self.check(vars(self))
        if self.controller == "empc" and not self.solutions:
            raise ValueError("empc controller needs explicit solutions")
        if self.controller == "qp" and not self.problems:
            raise ValueError("qp controller needs condensed problems")
        if self.controller != "empc":  # its QPs' phase-1 LPs go to scipy
            load_scipy()

    @classmethod
    def check(cls, run: dict) -> None:
        """ValueError unless the run values in run, RunSetup's defaults
        standing in for those it lacks, are in range.  It needs no tables,
        so a caller can check the values before it builds them.  A charge
        starts at rest with Vb = Vs = soc_start, so both SoC values lie in
        [0, 1], the Vs range of the OCV map and of the segment table."""
        v = {k: run.get(k, getattr(cls, k)) for k in (
            "controller", "feedback", "seed", "step_budget", "soc_start",
            "soc_target")}
        if (v["controller"] not in CONTROLLERS
                or v["feedback"] not in FEEDBACKS or v["seed"] < 0
                or v["step_budget"] < 1 or not 0 <= v["soc_start"] <= 1
                or not 0 <= v["soc_target"] <= 1):
            raise ValueError(f"need controller in {CONTROLLERS}, feedback in "
                             f"{FEEDBACKS}, seed >= 0, step_budget >= 1 and "
                             "soc_start, soc_target in [0, 1]")


def run_closed_loop(setup: RunSetup) -> SimTrace:
    """Simulate plant + (optional) observer + controller until the SoC
    target is met or the step budget runs out."""
    p, model, table, cfg = (setup.params, setup.model, setup.table,
                            setup.cfg)
    rng = np.random.default_rng(setup.seed)
    meas_sd, process_sd = np.sqrt(MEAS_VAR), np.sqrt(PROCESS_VAR)
    x = NdcState(Vb=setup.soc_start, Vs=setup.soc_start, I=0.0)
    u_prev = 0.0                        # the move applied on the last step
    ekf = default_ekf(x.as_array()) if setup.feedback == "ekf" else None
    rows: list[TraceRow] = []
    completed = False
    for k in range(setup.step_budget):
        y = mdl.output_vector(p, x, table.gamma1)
        if setup.feedback == "ekf":
            V_meas = y.V
            if setup.noise:
                V_meas += rng.normal(0.0, meas_sd)
            ekf = ekf_step(p, model, ekf, u_prev, V_meas)
            x_ctrl = NdcState(*ekf.x_hat.tolist())
        else:
            x_ctrl = x

        t0 = time.perf_counter_ns()
        if setup.controller == "empc":
            res = empc_step(setup.solutions, table, model, u_prev, x_ctrl,
                            setup.soc_target)
        elif setup.controller == "qp":
            res = online_mpc_step(setup.problems, table, model, u_prev,
                                  x_ctrl, setup.soc_target)
        else:  # "nmpc": RunSetup admits only CONTROLLERS
            res = nmpc_step(p, model, table, cfg, u_prev, x_ctrl,
                            setup.soc_target)
        solver_ns = time.perf_counter_ns() - t0
        u_prev = res.du_applied

        rows.append(TraceRow(
            step=k, time_s=k * model.dt, Vb=float(x.Vb), Vs=y.Vs, I=y.I,
            V=y.V, SoC=y.soc, eta=y.eta, segment=res.segment,
            region=-1 if res.region is None else res.region,
            du=res.du_applied, solver_time_ns=solver_ns,
            fallback_flag=int(res.fallback)))

        soc_ctrl = mdl.soc(p, x_ctrl.Vb, x_ctrl.Vs)
        if soc_ctrl >= setup.soc_target - COMPLETION_SLACK:
            completed = True
            if setup.stop_at_target:
                break

        # the controller commands I_{k+1}; the move applied to the plant is
        # relative to the plant's true current state
        xv = model.step(x.as_array(), res.I_next - x.I)
        if setup.noise:
            xv = xv + rng.normal(0.0, process_sd, 3)
        x = NdcState(*xv.tolist())
    return SimTrace(rows=rows, completed=completed)
