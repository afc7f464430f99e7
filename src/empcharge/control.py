"""Closed-loop charging: explicit-MPC law, online-QP and relinearized-NMPC
baselines, EKF output feedback, and the simulation loop.

Controller semantics per step, given state x = [Vb, Vs, I], target r and the
previous move u_prev: pick the segment, evaluate its law at
theta = [Vb, Vs, I, r, u_prev] to get du0, and apply

    I_next = clip(u_prev + du0 + I, I_MIN, I_MAX),

the first step of the move convention in the mpqp module docstring.  Each
step returns the move it applied, I_next - I, as the next step's u_prev.

The move reaches the current only after the A_aug product
(DiscreteModel.step), so the surface voltage one step on is fixed by the
state alone.  That is where the law's first V<= row is evaluated, so every
controller applies the law of the segment owning it,
select_segment(table, _predicted_vs(model, theta)), and no step uses a
linearization outside its own segment for that row.  The eMPC step looks
theta up in that segment's table and the online-QP step solves that
segment's QP; the NMPC baseline linearizes h and R0 at that predicted Vs
instead, and solves one QP per step.

Both online controllers solve their QP the standard way, warm-started
from the last step's active set (the online active-set strategy of
Ferreau, Bock & Diehl, IJRNC 2008): run_closed_loop passes each step the
rows its last QP ended on, and solve_qp checks that guess with one KKT
solve and needs no phase-1 LP when it holds.  Theta moves little from one
step to the next, and the row plan is the same for every segment and
every NMPC relinearization, so the guess usually holds.  The guess
decides only how the optimum is found, never which (see solve_qp), so a
charge is its cold charge to rounding.  Each step reports the phase-1
LPs its QP made (StepResult.phase1_lps; 0 for eMPC).

Acceptance criterion 09 holds the explicit law's step time against NMPC
solved this way: a baseline slowed by a cold start would read the
baseline's slowness as a property to keep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import model as mdl
from .model import DiscreteModel, NdcParams, NdcState
from .mpqp import I_MAX, I_MIN, MpcConfig, MpqpProblem, assemble_theta, build
from .qp import QpSolution, load_scipy, solve_qp
from .regions import ExplicitSolution, _atomic_write, locate
from .segments import SegmentTable, relinearize, select_segment

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
NOISE_BLOCK = 64  # steps of noise a noisy charge draws at a time
_EYE3 = np.eye(3)


@dataclass(slots=True)
class StepResult:
    I_next: float
    du_applied: float
    segment: int
    region: int | None
    fallback: bool
    iterations: int = 1  # QPs solved; perfbench's nmpc_step note reads it
    active_set: tuple[int, ...] = ()  # the online or NMPC QP's, else ()
    phase1_lps: int = 0  # the phase-1 LPs that QP made


@dataclass(slots=True)
class EkfState:
    x_hat: np.ndarray
    P: np.ndarray = field(default_factory=lambda: np.eye(3) * 1e-4)


def _predicted_vs(model: DiscreteModel, theta: np.ndarray) -> float:
    """Vs one step on from theta's state, which no move changes
    (DiscreteModel.step)."""
    return float((model.A_aug @ theta[:3])[1])


def _result(u_prev: float, x: NdcState, segment: int, law,
            region: int | None = None) -> StepResult:
    """The step of the move du0, saturated.  law is du0, or an online QP's
    solution: its first move when optimal, with its active set and LPs.
    du0 None (no region holds theta, no QP optimum) is the fallback 0."""
    du0, active, lps = law, (), 0
    if isinstance(law, QpSolution):
        active, lps = law.active_set, law.phase1_lps
        du0 = float(law.z_star[0]) if law.status == "optimal" else None
    du = 0.0 if du0 is None else du0
    I_next = min(max(u_prev + du + x.I, I_MIN), I_MAX)
    return StepResult(I_next, float(I_next - x.I), segment, region,
                      du0 is None, active_set=active, phase1_lps=lps)


def empc_step(solutions: list[ExplicitSolution], table: SegmentTable,
              model: DiscreteModel, u_prev: float, x: NdcState,
              r: float) -> StepResult:
    theta = assemble_theta(x, r, u_prev)
    si = select_segment(table, _predicted_vs(model, theta))
    idx = locate(solutions[si], theta)
    if idx is None:
        return _result(u_prev, x, si, None)
    reg = solutions[si].regions[idx]
    return _result(u_prev, x, si, float(reg.K[0] @ theta + reg.g[0]), idx)


def online_mpc_step(problems: list[MpqpProblem], table: SegmentTable,
                    model: DiscreteModel, u_prev: float, x: NdcState,
                    r: float, guess: tuple[int, ...] = ()) -> StepResult:
    """The segment's online QP, warm-started from guess, rows thought
    active (run_closed_loop passes the last step's active set)."""
    theta = assemble_theta(x, r, u_prev)
    si = select_segment(table, _predicted_vs(model, theta))
    return _result(u_prev, x, si, solve_qp(problems[si].qp(theta), guess))


def nmpc_step(params: NdcParams, model: DiscreteModel, table: SegmentTable,
              cfg: MpcConfig, u_prev: float, x: NdcState, r: float,
              guess: tuple[int, ...] = ()) -> StepResult:
    """Relinearized MPC: linearize h and R0 at the next step's Vs, which
    the state alone fixes, instead of at the table's fixed operating
    points, so the first step's V<= row is exact; then solve that one QP,
    warm-started from guess as online_mpc_step is."""
    theta = assemble_theta(x, r, u_prev)
    vs_next = _predicted_vs(model, theta)
    si = select_segment(table, vs_next)
    seg = relinearize(params, table.segments[si], min(max(vs_next, 0.0), 1.0))
    return _result(u_prev, x, si, solve_qp(build(model, seg, cfg).qp(theta),
                                           guess))


def ekf_step(params: NdcParams, model: DiscreteModel, ekf: EkfState,
             du_applied: float, V_measured: float) -> EkfState:
    """One predict-update cycle with terminal voltage as the measurement.

    A noisy charge can turn on one ulp (a point location that hits or
    misses), so the step keeps its bits by one rule.  The matrix products
    stay numpy, in this association: BLAS may sum in another order or fuse
    a multiply-add, so the same products written out would round
    differently.  So does np.exp, numpy's own and not the C library's.
    Element-wise +, -, * and / on float64 round the same in numpy and on
    Python floats, so they run on whichever costs less: the output maps
    run on the prediction as Python floats, and K[:, None] * H forms
    np.outer's products without its reshaping."""
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
    P_new = (_EYE3 - K[:, None] * H) @ P_pred
    P_new = 0.5 * (P_new + P_new.T)
    return EkfState(x_hat=x_new, P=P_new)


@dataclass(frozen=True, slots=True)
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
    phase1_lps: int  # made by the charge's QPs

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
    # the qp controller's, condensed from cfg by build as NMPC's are
    problems: list[MpqpProblem] | None = field(init=False, default=None)
    soc_start: float = 0.2
    soc_target: float = 0.9
    step_budget: int = 150
    stop_at_target: bool = True
    noise: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        segments = [s.index for s in self.table.segments]
        got = [s.segment_index for s in self.solutions or ()]
        if got and got != segments:  # a step indexes them by position
            raise ValueError(f"solutions for segments {got}; the table has "
                             f"segments {segments}")
        self.check(vars(self), self.table,
                   [s.theta_box for s in self.solutions or ()])
        if self.controller == "empc":
            if not self.solutions:
                raise ValueError("empc controller needs explicit solutions")
            empty = [x.segment_index for x in self.solutions if not x.regions]
            if empty:  # the law would be defined nowhere there
                raise ValueError(f"segment {empty[0]}: no critical region in "
                                 "the theta box")
        else:  # its QPs' phase-1 LPs go to scipy
            load_scipy()
            if self.controller == "qp":
                self.problems = [build(self.model, seg, self.cfg)
                                 for seg in self.table.segments]

    @classmethod
    def check(cls, run: dict, table: SegmentTable, boxes) -> None:
        """ValueError unless the run values in run, RunSetup's defaults
        standing in for those it lacks, are in range.  It reads no region
        table or problem, so a caller can check the values before it
        builds them.  A charge starts at rest with Vb = Vs = soc_start.
        Both SoC values must lie in [0, 1], and soc_target, the Vs of a
        charge at rest at that SoC, within the table's last vs_hi (0.90
        by default), past which the last segment's tangent under-predicts
        V.  An eMPC law is defined in its theta boxes only (one per
        segment or one for all): each must hold theta0 and I_MIN..I_MAX."""
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
        if v["soc_target"] > table.coverage[1]:
            raise ValueError(f"soc_target {v['soc_target']}: a charge at rest "
                             "there has Vs past the segment table's last "
                             f"vs_hi {table.coverage[1]}")
        theta0 = assemble_theta(NdcState(v["soc_start"], v["soc_start"], 0.0),
                                v["soc_target"], 0.0)
        need = np.column_stack([theta0, theta0])
        need[2] = I_MIN, I_MAX  # theta0's current, 0, lies within
        boxes = np.reshape(boxes, (-1, *need.shape))
        short = np.flatnonzero(((boxes[..., 0] > need[:, 0])
                                | (boxes[..., 1] < need[:, 1])).any(1))
        if short.size and v["controller"] == "empc":
            raise ValueError(
                f"segment {table.segments[short[0]].index}: its theta box "
                f"{boxes[short[0]].tolist()} leaves out the first theta "
                f"{theta0.tolist()} or currents in [{I_MIN}, {I_MAX}]")


def run_closed_loop(setup: RunSetup) -> SimTrace:
    """Simulate plant + (optional) observer + controller until the SoC
    target is met or the step budget runs out.

    A noisy charge draws its noise NOISE_BLOCK steps at a time, in step
    order: per step the measurement's draw (under EKF feedback) and then
    the plant's three.  One generator continues one stream, so that is
    the sequence of one rng.normal call per draw, to the bit, whatever
    the block size; the steps past the target leave theirs unused, and
    the memory does not grow with step_budget."""
    p, model, table, cfg = (setup.params, setup.model, setup.table,
                            setup.cfg)
    ekf_fb = setup.feedback == "ekf"
    if setup.noise:
        sd = (([np.sqrt(MEAS_VAR)] if ekf_fb else [])
              + [np.sqrt(PROCESS_VAR)] * 3)
        rng = np.random.default_rng(setup.seed)
    x = NdcState(Vb=setup.soc_start, Vs=setup.soc_start, I=0.0)
    u_prev = 0.0                        # the move applied on the last step
    active: tuple[int, ...] = ()        # the last QP's active set
    lps = 0                             # the phase-1 LPs of the QPs so far
    ekf = EkfState(x.as_array()) if ekf_fb else None
    rows: list[TraceRow] = []
    completed = False
    for k in range(setup.step_budget):
        if setup.noise and k % NOISE_BLOCK == 0:
            block = (rng.standard_normal((NOISE_BLOCK, len(sd))) * sd).tolist()
        d = block[k % NOISE_BLOCK] if setup.noise else None
        y = mdl.output_vector(p, x, table.gamma1)
        if ekf_fb:
            V_meas = y.V + d[0] if setup.noise else y.V
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
                                  x_ctrl, setup.soc_target, active)
        else:  # "nmpc": RunSetup admits only CONTROLLERS
            res = nmpc_step(p, model, table, cfg, u_prev, x_ctrl,
                            setup.soc_target, active)
        solver_ns = time.perf_counter_ns() - t0
        u_prev, active = res.du_applied, res.active_set
        lps += res.phase1_lps

        rows.append(TraceRow(
            k, k * model.dt, float(x.Vb), y.Vs, y.I, y.V, y.soc, y.eta,
            res.segment, -1 if res.region is None else res.region,
            res.du_applied, solver_ns, int(res.fallback)))

        soc_ctrl = mdl.soc(p, x_ctrl.Vb, x_ctrl.Vs)
        if soc_ctrl >= setup.soc_target - COMPLETION_SLACK:
            completed = True
            if setup.stop_at_target:
                break

        # the controller commands I_{k+1}; the move applied to the plant is
        # relative to the plant's true current state
        Vb, Vs, I = model.step(x.as_array(), res.I_next - x.I).tolist()
        if setup.noise:
            Vb, Vs, I = Vb + d[-3], Vs + d[-2], I + d[-1]
        x = NdcState(Vb, Vs, I)
    return SimTrace(rows=rows, completed=completed, phase1_lps=lps)
