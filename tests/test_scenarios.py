"""A scenario configuration is checked once, when it is built.

Every way of building one (the constructor, ``from_dict``, ``load``,
``dataclasses.replace``, ``with_mode`` and ``with_seed``) runs the same
checks with the same messages, and the formula parsed there is the one
``validate()`` returns from then on.
"""
import hashlib
import json
import pickle
from dataclasses import asdict, replace

import pytest

import rotogo.scenarios
from rotogo.mpc import mpc_run
from rotogo.scenarios import ScenarioConfig, scenario_phi_avoid, scenario_phi_stayin

from test_mpc import tiny_scenario

#: (overrides of ``tiny_scenario()``, message) for every check, in the order
#: the checks run.
INVALID = [
    ({"objective_mode": "fast"}, "objective_mode must be one of ('robustness', 'rotogo')"),
    ({"via_points": 0}, "via_points must be >= 1"),
    ({"formula": "F[0,1] (x >"}, "field 'formula': 1:12: expected a value, found 'end of input'"),
    ({"formula": "F[0,inf) (x > 0)"}, "the scenario formula must be bounded (finite horizon)"),
    ({"mission_horizon": 1e308}, "mission_horizon must be under 1e300 seconds, got 1e+308"),
    ({"env_step_period": -1e300}, "env_step_period must be under 1e300 seconds, got -1e+300"),
    ({"mission_horizon": 0.0}, "mission_horizon must be positive"),
    ({"mission_horizon": -1.0}, "mission_horizon must be positive"),
    ({"formula": "G[0,5] (x > 0)"}, "mission_horizon is shorter than the formula horizon"),
    ({"trace_period": 0.0}, "trace_period must be positive"),
    ({"replan_period": -0.5}, "replan_period must be positive"),
    ({"env_step_period": 4e-7}, "env_step_period must be positive"),  # under half a tick
    ({"replan_period": 0.25}, "replan_period must be a multiple of trace_period"),
    ({"mission_horizon": 2.05}, "mission_horizon must be a multiple of trace_period"),
    ({"env_step_period": 0.03}, "trace_period must be a multiple of env_step_period"),
    ({"population_size": 3}, "population_size must be >= 4"),
    ({"cmaes_iterations": 0}, "cmaes_iterations must be >= 1"),
    ({"first_attempt_iterations": -2}, "first_attempt_iterations must be >= 1"),
    ({"initial_step_size": 0.0}, "initial_step_size must be positive"),
    ({"warm_start_step_size": -1.0}, "warm_start_step_size must be positive"),
    ({"v_max": 0.0}, "v_max must be positive"),
    ({"a_max": -2.0}, "a_max must be positive"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"workspace": (5.0, 0.0, 0.0, 5.0)}, "workspace needs x_min < x_max, got x_min 5.0 and x_max 0.0"),
    ({"workspace": (0.0, 5.0, 2.0, 2.0)}, "workspace needs y_min < y_max, got y_min 2.0 and y_max 2.0"),
    ({"env_noise_std": -0.05}, "env_noise_std must be >= 0, got -0.05"),
    ({"min_distance_radius": -3.0}, "min_distance_radius must be >= 0, got -3.0"),
]

#: The configuration's fields, which ``asdict`` and ``save`` write.
FIELDS = [
    "name", "formula", "aliases", "robot_start", "env_start", "workspace", "mission_horizon", "trace_period",
    "replan_period", "env_step_period", "env_noise_std", "objective_mode", "seed", "min_distance_radius",
    "via_points", "population_size", "cmaes_iterations", "first_attempt_iterations", "initial_step_size",
    "warm_start_step_size", "v_max", "a_max",
]

#: SHA-256 over the files ``save()`` writes for phi_avoid, then phi_stayin.
SAVE_DIGEST = "fb49007f2b7cbb07da3dcad0ed712b8b2047868bc2e06578b8f15093ee56a289"


def _refused(build) -> str:
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize("overrides, message", INVALID)
def test_every_way_of_building_a_config_runs_every_check(tmp_path, overrides, message):
    fields = asdict(tiny_scenario()) | overrides
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(fields), encoding="utf-8")
    assert _refused(lambda: ScenarioConfig(**fields)) == message
    assert _refused(lambda: ScenarioConfig.from_dict(json.loads(path.read_text()))) == message
    assert _refused(lambda: ScenarioConfig.load(path)) == f"{path}: {message}"
    assert _refused(lambda: replace(tiny_scenario(), **overrides)) == message


def test_with_mode_and_with_seed_run_the_checks():
    cfg = tiny_scenario()
    assert _refused(lambda: cfg.with_mode("fast")) == "objective_mode must be one of ('robustness', 'rotogo')"
    assert _refused(lambda: cfg.with_seed(-1)) == "seed must be >= 0, got -1"


def test_a_config_parses_its_formula_once_when_built(monkeypatch):
    """``validate()`` hands out the formula parsed at construction: an
    episode parses nothing, and a pickle carries the formula to a worker."""
    parses = []
    real = rotogo.scenarios.parse_formula
    monkeypatch.setattr(rotogo.scenarios, "parse_formula", lambda *a, **kw: parses.append(a) or real(*a, **kw))
    cfg = tiny_scenario()
    assert len(parses) == 1 and cfg.validate() is cfg.validate()
    result = mpc_run(cfg)
    assert len(parses) == 1 and len(result.replans) == 4
    copy = pickle.loads(pickle.dumps(cfg))
    assert len(parses) == 1 and copy == cfg and copy.validate() == cfg.validate()
    assert cfg.with_seed(3).validate() == cfg.validate() and len(parses) == 2


def test_the_parsed_formula_is_not_a_field(tmp_path):
    digest = hashlib.sha256()
    for cfg in (scenario_phi_avoid(), scenario_phi_stayin()):
        assert list(asdict(cfg)) == FIELDS
        assert "_formula" not in repr(cfg) and replace(cfg) == cfg
        cfg.save(tmp_path / "cfg.json")
        digest.update((tmp_path / "cfg.json").read_bytes())
    assert digest.hexdigest() == SAVE_DIGEST
