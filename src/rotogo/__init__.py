"""Signal temporal logic robustness-to-go toolkit.

Formulas over finite timed signals under pointwise semantics: boolean
satisfaction, robustness, robustness-to-go, formula progression, and a
model-predictive-control benchmark comparing robustness against
robustness-to-go as planning objectives.
"""

from .formula import (
    And,
    Bottom,
    Formula,
    Interval,
    Not,
    Or,
    Pred,
    TOP,
    BOTTOM,
    Top,
    Until,
    always,
    eventually,
    horizon,
    implies,
    is_bounded,
    to_seconds,
    to_ticks,
)
from .parser import ParseError, format_formula, parse_formula
from .signals import Sample, Signal, TraceRow, read_trace_csv, validate_trace, write_trace_csv
from .semantics import robustness, rotogo, sat, sign_consistency_check
from .progression import (
    MonitorState,
    monitor_step,
    progress,
    rotogo_via_progression,
    simplify,
    start_monitor,
)
from .fasteval import TouchCounter, eval_robustness_all
from .cmaes import CmaesConfig, CmaesResult, cmaes_minimize
from .planning import Limits, PlanningProblem, Trajectory, ViaPointPlan, Workspace, rollout
from .dynamics import DoubleIntegrator, EnvState, RobotState, env_step, robot_step
from .scenarios import ScenarioConfig, get_scenario, scenario_phi_avoid, scenario_phi_stayin
from .mpc import RunResult, StatsRow, batch_stats, mpc_run
from .bench import BenchSpec, run_bench
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = [
    "And", "Bottom", "Formula", "Interval", "Not", "Or", "Pred", "TOP", "BOTTOM",
    "Top", "Until", "always", "eventually", "horizon", "implies", "is_bounded",
    "to_seconds", "to_ticks",
    "ParseError", "format_formula", "parse_formula",
    "Sample", "Signal", "TraceRow", "read_trace_csv", "validate_trace", "write_trace_csv",
    "robustness", "rotogo", "sat", "sign_consistency_check",
    "MonitorState", "monitor_step", "progress", "rotogo_via_progression", "simplify",
    "start_monitor",
    "TouchCounter", "eval_robustness_all",
    "CmaesConfig", "CmaesResult", "cmaes_minimize",
    "Limits", "PlanningProblem", "Trajectory", "ViaPointPlan", "Workspace", "rollout",
    "DoubleIntegrator", "EnvState", "RobotState", "env_step", "robot_step",
    "ScenarioConfig", "get_scenario", "scenario_phi_avoid", "scenario_phi_stayin",
    "RunResult", "StatsRow", "batch_stats", "mpc_run",
    "BenchSpec", "run_bench",
    "run_selftest",
]
