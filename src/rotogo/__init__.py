"""Signal temporal logic robustness-to-go toolkit.

Formulas over finite timed signals under pointwise semantics: boolean
satisfaction, robustness, robustness-to-go, formula progression, and a
model-predictive-control benchmark comparing robustness against
robustness-to-go as planning objectives.

``import rotogo`` loads the toolkit core (parse, evaluate, progress) and
numpy.  The planner, the MPC benchmark and the property corpus load on the
first use of one of their names (PEP 562), so a process that only monitors
traces never imports them.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "formula": (
        "And", "Bottom", "Formula", "Interval", "Not", "Or", "Pred", "TOP", "BOTTOM",
        "Top", "Until", "always", "eventually", "horizon", "implies", "is_bounded",
        "to_seconds", "to_ticks",
    ),
    "parser": ("ParseError", "format_formula", "parse_formula"),
    "signals": ("Signal", "read_trace_csv", "validate_trace", "write_trace_csv"),
    "semantics": ("robustness", "rotogo", "sat"),
    "progression": (
        "MonitorState", "monitor_step", "progress", "rotogo_via_progression", "simplify",
        "start_monitor",
    ),
    "fasteval": ("eval_robustness_all",),
    "cmaes": ("CmaesConfig", "CmaesResult", "cmaes_minimize"),
    "planning": ("Limits", "PlanningProblem", "Workspace"),
    "dynamics": ("DoubleIntegrator", "RobotState"),
    "scenarios": ("ScenarioConfig", "get_scenario", "scenario_phi_avoid", "scenario_phi_stayin"),
    "mpc": ("RunResult", "StatsRow", "batch_stats", "mpc_run"),
    "bench": ("BenchSpec", "run_bench"),
    "selftest": ("run_selftest",),
}

#: The submodules imported with the package.
_CORE = ("formula", "parser", "signals", "semantics", "progression", "fasteval")

__all__ = [name for names in _EXPORTS.values() for name in names]

#: Public name -> defining submodule, for the names outside the core.
_LAZY = {name: module for module, names in _EXPORTS.items() if module not in _CORE for name in names}

for _module in _CORE:
    _namespace = import_module(f".{_module}", __name__)
    globals().update((name, getattr(_namespace, name)) for name in _EXPORTS[_module])
del _module, _namespace


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
