"""Scenario configuration and the two built-in benchmark scenarios.

A scenario bundles the task formula (with its named predicate aliases), the
initial robot and environment states, the workspace, timing, noise, and
optimizer settings.  Configurations round-trip through JSON so they can be
shipped to the command line tools.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, get_args, get_origin, get_type_hints

from .formula import Formula, horizon, is_bounded, to_ticks
from .parser import parse_formula

if TYPE_CHECKING:
    from .planning import Limits, Workspace

MODES = ("robustness", "rotogo")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    formula: str
    aliases: dict[str, str] = field(default_factory=dict)
    robot_start: tuple[float, float, float, float] = (0.5, 2.5, 0.0, 0.0)
    env_start: tuple[float, float] = (2.5, 2.5)
    workspace: tuple[float, float, float, float] = (0.0, 5.0, 0.0, 5.0)
    mission_horizon: float = 20.0  # seconds
    trace_period: float = 0.1  # execution logging and cost evaluation period
    replan_period: float = 0.5
    env_step_period: float = 0.005
    env_noise_std: float = 0.01  # meters per environment step
    objective_mode: str = "rotogo"
    seed: int = 0
    min_distance_radius: float = 0.5
    via_points: int = 4
    population_size: int = 25
    cmaes_iterations: int = 20
    # The first planning attempt happens before the robot starts moving, so
    # it can afford a deeper search than the in-mission replans.
    first_attempt_iterations: int = 100
    initial_step_size: float = math.sqrt(10.0)
    warm_start_step_size: float = math.sqrt(5.0)
    v_max: float = 0.5
    a_max: float = 1.0

    def __post_init__(self):
        if self.objective_mode not in MODES:
            raise ValueError(f"objective_mode must be one of {MODES}")
        if self.via_points < 1:
            raise ValueError("via_points must be >= 1")

    def parsed_formula(self) -> Formula:
        return parse_formula(self.formula, aliases=self.aliases)

    # The planner is imported by the two methods that build its types, so
    # that reading a configuration (``rotogo monitor --config``) does not
    # load it.

    def limits(self) -> Limits:
        from .planning import Limits

        return Limits(v_max=self.v_max, a_max=self.a_max)

    def workspace_box(self) -> Workspace:
        from .planning import Workspace

        x0, x1, y0, y1 = self.workspace
        return Workspace(x0, x1, y0, y1)

    def validate(self) -> Formula:
        """Parse and cross-check the configuration; returns the formula."""
        f = self.parsed_formula()
        if not is_bounded(f):
            raise ValueError("the scenario formula must be bounded (finite horizon)")
        if horizon(f) > to_ticks(self.mission_horizon):
            raise ValueError("mission_horizon is shorter than the formula horizon")
        # Every period is checked before any modulo divides by it; a period
        # under half a tick rounds to zero ticks and is rejected too.
        for name in ("trace_period", "replan_period", "env_step_period"):
            if to_ticks(getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be positive")
        trace_dt = to_ticks(self.trace_period)
        if to_ticks(self.replan_period) % trace_dt != 0:
            raise ValueError("replan_period must be a multiple of trace_period")
        if to_ticks(self.mission_horizon) % trace_dt != 0:
            raise ValueError("mission_horizon must be a multiple of trace_period")
        if trace_dt % to_ticks(self.env_step_period) != 0:
            raise ValueError("trace_period must be a multiple of env_step_period")
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4")
        for name in ("cmaes_iterations", "first_attempt_iterations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("initial_step_size", "warm_start_step_size", "v_max", "a_max"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        x_min, x_max, y_min, y_max = self.workspace
        if not x_min < x_max:
            raise ValueError(f"workspace needs x_min < x_max, got x_min {x_min} and x_max {x_max}")
        if not y_min < y_max:
            raise ValueError(f"workspace needs y_min < y_max, got y_min {y_min} and y_max {y_max}")
        if not self.env_noise_std >= 0:
            raise ValueError(f"env_noise_std must be >= 0, got {self.env_noise_std}")
        return f

    def with_mode(self, mode: str) -> "ScenarioConfig":
        return replace(self, objective_mode=mode)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)

    @classmethod
    def from_dict(cls, d) -> "ScenarioConfig":
        """A configuration from decoded JSON.  The shape and type of every
        field are checked first, so a bad value fails with its field's name."""
        if not isinstance(d, dict):
            raise ValueError(f"a scenario config must be a JSON object, not {_json_type(d)}")
        unknown = sorted(set(d) - set(_FIELD_KINDS))
        if unknown:
            raise ValueError(f"unknown scenario config keys: {', '.join(unknown)}")
        missing = [key for key in ("name", "formula") if key not in d]
        if missing:
            raise ValueError(f"scenario config lacks {' and '.join(map(repr, missing))}")
        return cls(**{key: _checked_field(key, value) for key, value in d.items()})

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        """A configuration read from a JSON file; every error names the file,
        and a syntax error its line and column too."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: not valid JSON: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        try:
            return cls.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


#: What JSON value each configuration field takes, read off its annotation:
#: "string", "integer", "number" (finite), "aliases" (an object of strings),
#: or the length of an array of numbers.
_FIELD_KINDS: dict[str, object] = {
    key: {str: "string", int: "integer", float: "number"}.get(hint)
    or ("aliases" if get_origin(hint) is dict else len(get_args(hint)))
    for key, hint in get_type_hints(ScenarioConfig).items()
}


def _checked_field(key: str, value):
    """``value`` as field ``key`` stores it; ValueError naming the field
    when its JSON type or shape is wrong."""
    kind = _FIELD_KINDS[key]
    if kind == "string":
        ok = isinstance(value, str)
    elif kind == "integer":
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind == "number":
        ok = _is_number(value)
    elif kind == "aliases":
        ok = isinstance(value, dict) and all(isinstance(v, str) for v in value.values())
    else:
        ok = isinstance(value, list) and len(value) == kind and all(_is_number(v) for v in value)
    if not ok:
        want = {
            "string": "a string",
            "integer": "an integer",
            "number": "a finite number",
            "aliases": "an object of strings",
        }.get(kind, f"an array of {kind} finite numbers")
        raise ValueError(f"field {key!r} must be {want}, got {_json_type(value)} {_short(value)}")
    return tuple(value) if isinstance(value, list) else value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    return "object" if isinstance(value, dict) else "null"


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def scenario_phi_avoid(mode: str = "rotogo", seed: int = 0) -> ScenarioConfig:
    """Reach the goal box within the mission while avoiding the human and
    two static obstacles.  The robot starts wedged between the obstacles, so
    no trajectory from that start can score a robustness above 0.1."""
    return ScenarioConfig(
        name="phi_avoid",
        formula="G[0,20] !(human | obs1 | obs2) & F[0,20] goal",
        aliases={
            "human": "(x - xe)^2 + (y - ye)^2 < 0.25",
            "obs1": "(x > 0.5) & (x < 1) & (y > 0) & (y < 2.4)",
            "obs2": "(x > 0.5) & (x < 1) & (y > 2.6) & (y < 5)",
            "goal": "(x > 4) & (y > 2) & (y < 3)",
        },
        robot_start=(0.5, 2.5, 0.0, 0.0),
        env_start=(2.5, 2.5),
        min_distance_radius=0.5,  # human disc radius, sqrt(0.25)
        objective_mode=mode,
        seed=seed,
    )


def scenario_phi_stayin(mode: str = "rotogo", seed: int = 0) -> ScenarioConfig:
    """Stay inside a disc around the drifting environment for the mission."""
    return ScenarioConfig(
        name="phi_stayin",
        formula="G[0,20] region",
        aliases={"region": "(x - xe)^2 + (y - ye)^2 < 2"},
        robot_start=(1.2, 2.5, 0.0, 0.0),
        env_start=(2.5, 2.5),
        min_distance_radius=math.sqrt(2.0),  # disc radius
        objective_mode=mode,
        seed=seed,
    )


BUILTIN_SCENARIOS = {
    "phi_avoid": scenario_phi_avoid,
    "phi_stayin": scenario_phi_stayin,
}


def get_scenario(name: str, mode: str = "rotogo", seed: int = 0) -> ScenarioConfig:
    try:
        return BUILTIN_SCENARIOS[name](mode=mode, seed=seed)
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; built-ins: {sorted(BUILTIN_SCENARIOS)}") from None
