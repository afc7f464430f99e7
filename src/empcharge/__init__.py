"""Explicit-MPC charging-law synthesis and closed-loop simulation for a
double-capacitor lithium-ion battery model."""

from .model import (DiscreteModel, NdcParams, NdcState, OutputVector,
                    discretize, eta, ocv, r0, soc, step_nonlinear,
                    terminal_voltage)
from .segments import (LinearSegment, SegmentTable, build_table,
                       default_table, linearize_at, select_segment)
from .qp import DenseQp, QpSolution, remove_redundant, solve_qp
from .mpqp import MpcConfig, MpqpProblem, assemble_theta, build
from .regions import (CriticalRegion, ExplicitSolution, coverage_check,
                      explore, export_table, import_table, locate, rounded)
from .control import (EkfState, RunSetup, SimTrace, ekf_step, empc_step,
                      nmpc_step, online_mpc_step, run_closed_loop)

__version__ = "0.1.0"
