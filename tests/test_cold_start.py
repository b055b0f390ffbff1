"""What a fresh interpreter imports, and the command line run in one.

Each test starts a new Python process, so that modules the test session
already holds cannot hide a missing import.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rotogo

SRC = str(Path(rotogo.__file__).resolve().parent.parent)

CORE = ("formula", "parser", "signals", "semantics", "progression", "fasteval")
LAZY = ("bench", "mpc", "cmaes", "planning", "dynamics", "scenarios", "selftest", "testgen", "cli")
HEAVY_STDLIB = ("concurrent.futures", "multiprocessing")


def fresh(*args: str, code: str | None = None) -> subprocess.CompletedProcess:
    """Run ``python -c code`` or ``python -m rotogo.cli args`` in a new
    interpreter that imports rotogo from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", code] if code is not None else [sys.executable, "-m", "rotogo.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env)


def loaded_after(statements: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``statements``."""
    done = fresh(code=f"import json, sys\n{statements}\nprint(json.dumps(sorted(sys.modules)))")
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_loads_only_the_core():
    modules = loaded_after("import rotogo")
    assert "numpy" in modules
    assert {f"rotogo.{name}" for name in CORE} <= modules
    assert not modules & {f"rotogo.{name}" for name in LAZY}
    assert not modules & set(HEAVY_STDLIB)


def test_every_public_name_resolves_and_star_import_binds_it():
    done = fresh(code=(
        "import rotogo\n"
        "missing = [n for n in rotogo.__all__ if getattr(rotogo, n, None) is None]\n"
        "namespace = {}\n"
        "exec('from rotogo import *', namespace)\n"
        "unbound = [n for n in rotogo.__all__ if namespace.get(n) is not getattr(rotogo, n)]\n"
        "print(missing, unbound, sorted(set(rotogo.__all__) - set(dir(rotogo))))"
    ))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] [] []"


def test_lazy_name_loads_its_module_on_first_use():
    modules = loaded_after("import rotogo\nrotogo.CmaesConfig")
    assert "rotogo.cmaes" in modules
    assert "rotogo.mpc" not in modules and "rotogo.planning" not in modules
    done = fresh(code="import rotogo\nrotogo.no_such_name")
    assert done.returncode == 1
    assert "AttributeError: module 'rotogo' has no attribute 'no_such_name'" in done.stderr


def test_monitor_without_config_loads_no_planner(tmp_path):
    # Reading a scenario's aliases (``--config``) loads no planner either.
    from rotogo.scenarios import ScenarioConfig

    trace = tmp_path / "trace.csv"
    trace.write_text("t,x\n0.0,1.0\n0.1,2.0\n", encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    ScenarioConfig(name="tiny", formula="G[0,1] positive", aliases={"positive": "x > 0"}).save(cfg)
    unwanted = {f"rotogo.{name}" for name in ("mpc", "bench", "cmaes", "planning", "selftest", "testgen")}
    for extra in ([], ["--config", str(cfg)]):
        args = ["monitor", "positive" if extra else "(x > 0)", str(trace), "--rotogo-from", "0.05", *extra]
        modules = loaded_after(f"from rotogo.cli import main\nassert main({args!r}) == 0")
        assert not modules & unwanted, extra
        assert not modules & set(HEAVY_STDLIB), extra


def test_one_episode_bench_starts_no_pool(tmp_path):
    # One episode runs in the calling process, whatever the core count.
    from rotogo.scenarios import ScenarioConfig

    cfg = tmp_path / "tiny.json"
    ScenarioConfig(
        name="tiny", formula="G[0,1] (x > 0.5)", robot_start=(1.0, 1.0, 0.0, 0.0), mission_horizon=1.0,
        population_size=6, first_attempt_iterations=3,
    ).save(cfg)
    args = ["bench", "--config", str(cfg), "--modes", "rotogo", "--episodes", "1", "--out", str(tmp_path / "out")]
    modules = loaded_after(f"from rotogo.cli import main\nassert main({args!r}) == 0")
    assert "rotogo.bench" in modules
    assert not modules & set(HEAVY_STDLIB)
    assert (tmp_path / "out" / "stats.csv").exists()


# ---------------------------------------------------------------------------
# Every command in a fresh interpreter: an import that a command body lacks
# fails here instead of turning into exit 2.


@pytest.fixture
def trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,x,y\n0.0,4.5,2.5\n0.1,4.6,2.5\n0.2,4.7,2.5\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "formula, code, first_line",
    [
        ("F[0,0.2] (x > 4)", 0, "verdict: satisfied"),
        ("G[0,0.2] (x > 4.55)", 1, "verdict: violated"),
        ("(1e400 > 1e400)", 2, None),
    ],
)
def test_monitor_in_a_fresh_interpreter(trace_csv, formula, code, first_line):
    done = fresh("monitor", formula, str(trace_csv), "--rotogo-from", "0.1")
    assert done.returncode == code, done.stderr
    if first_line is None:
        assert done.stdout == "" and done.stderr.startswith("error: ")
    else:
        lines = done.stdout.splitlines()
        assert lines[0] == first_line
        assert lines[1].startswith("robustness: ") and lines[2].startswith("rotogo[t_hat=0.1]: ")


def test_progress_in_a_fresh_interpreter(trace_csv):
    done = fresh("progress", "F[0,0.2] (x > 4.55)", str(trace_csv))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("t=0: ")
    assert lines[-1] == "verdict after 2 steps: satisfied"


def test_plan_in_a_fresh_interpreter(tmp_path):
    from rotogo.scenarios import ScenarioConfig

    cfg = tmp_path / "tiny.json"
    ScenarioConfig(
        name="tiny", formula="G[0,1] (x > 0.5)", robot_start=(1.0, 1.0, 0.0, 0.0), mission_horizon=1.0,
        population_size=6, first_attempt_iterations=3,
    ).save(cfg)
    done = fresh("plan", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "scenario: tiny"
    assert lines[1].startswith("cost: ")
    assert "via points:" in lines
    assert lines[-1].startswith("trajectory written to ")
    assert (tmp_path / "out" / "tiny_plan.csv").exists()


def test_selftest_in_a_fresh_interpreter():
    done = fresh("selftest", "--cases", "0")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("warning: --cases 0 requested")
    assert lines[-1] == "selftest: pass"


# ---------------------------------------------------------------------------
# numpy.ma: np.unique imports it on its first call (numpy 2.4, through
# np.ma.is_masked), at about 1.2 MB and 16 ms a process; no evaluation path
# needs it.


def test_full_table_does_not_load_numpy_ma():
    modules = loaded_after(
        "import numpy as np\n"
        "from rotogo import Signal, eval_robustness_all, parse_formula\n"
        "s = Signal(np.arange(20, dtype=np.int64) * 100_000, {'x': np.linspace(-1.0, 1.0, 20)})\n"
        "eval_robustness_all(s, parse_formula('F[0,1] (x > 0)'))"
    )
    assert "numpy.ma" not in modules


@pytest.mark.parametrize("mode", ["robustness", "rotogo"])
def test_episode_does_not_load_numpy_ma(mode):
    modules = loaded_after(
        "from rotogo import ScenarioConfig, mpc_run\n"
        "mpc_run(ScenarioConfig(\n"
        "    name='tiny', formula='G[0,2] (x > -100)', robot_start=(1.0, 1.0, 0.0, 0.0), mission_horizon=2.0,\n"
        f"    env_noise_std=0.0, objective_mode={mode!r}, first_attempt_iterations=3, cmaes_iterations=2,\n"
        "))"
    )
    assert "rotogo.mpc" in modules
    assert "numpy.ma" not in modules
