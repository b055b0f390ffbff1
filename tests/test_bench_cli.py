import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotogo import bench, pool
from rotogo.bench import BenchSpec, format_stats_csv, run_bench
from rotogo.cli import main
from rotogo.formula import to_seconds, to_ticks
from rotogo.mpc import batch_stats, mpc_run
from rotogo.parser import format_formula, parse_formula
from rotogo.scenarios import ScenarioConfig, get_scenario
from rotogo.semantics import robustness, sat
from rotogo.signals import Signal, read_trace_csv, write_trace_csv
from rotogo.testgen import random_instance


def tiny_scenario(**overrides) -> ScenarioConfig:
    base = dict(
        name="tiny",
        formula="G[0,2] (x > 0.5)",
        robot_start=(1.0, 1.0, 0.0, 0.0),
        env_start=(3.0, 3.0),
        mission_horizon=2.0,
        env_noise_std=0.0,
        seed=0,
        first_attempt_iterations=8,
        cmaes_iterations=4,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def goal_trace(tmp_path, xs):
    n = len(xs)
    signal = Signal(
        np.arange(n, dtype=np.int64) * to_ticks(0.1),
        {
            "x": np.asarray(xs, dtype=float),
            "y": np.full(n, 2.5),
            "vx": np.zeros(n),
            "vy": np.zeros(n),
            "xe": np.full(n, 2.5),
            "ye": np.full(n, 2.5),
        },
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(signal, path)
    return path


# ---------------------------------------------------------------------------
# bench


def test_bench_outputs_and_reproducibility(tmp_path):
    spec = BenchSpec(
        scenario=tiny_scenario(),
        modes=("rotogo", "robustness"),
        episodes=2,
        base_seed=7,
        out_dir=tmp_path / "a",
    )
    result = run_bench(spec)
    assert [row.mode for row in result.stats] == ["rotogo", "robustness"]
    first = (tmp_path / "a" / "stats.csv").read_bytes()
    header = first.decode().splitlines()[0]
    assert header == "problem,mode,mean_robustness,mean_min_distance,success_rate,episodes"

    again = run_bench(
        BenchSpec(
            scenario=tiny_scenario(),
            modes=("rotogo", "robustness"),
            episodes=2,
            base_seed=7,
            out_dir=tmp_path / "b",
        )
    )
    assert (tmp_path / "b" / "stats.csv").read_bytes() == first

    traces = sorted(p.name for p in (tmp_path / "a" / "traces").iterdir())
    assert traces == [
        "tiny_robustness_000.csv",
        "tiny_robustness_001.csv",
        "tiny_rotogo_000.csv",
        "tiny_rotogo_001.csv",
    ]


def test_stats_recomputable_from_jsonl(tmp_path):
    spec = BenchSpec(scenario=tiny_scenario(), modes=("rotogo",), episodes=3, base_seed=1, out_dir=tmp_path)
    result = run_bench(spec)
    rows = [json.loads(line) for line in (tmp_path / "episodes.jsonl").read_text().splitlines()]
    assert len(rows) == 3
    finite = [r["final_robustness"] for r in rows if not isinstance(r["final_robustness"], str)]
    mean_rho = sum(finite) / len(finite)
    success = sum(1 for r in rows if r["success"]) / len(rows)
    mean_dist = sum(r["min_distance"] for r in rows) / len(rows)
    stats_line = (tmp_path / "stats.csv").read_text().splitlines()[1].split(",")
    assert float(stats_line[2]) == pytest.approx(mean_rho, abs=0)
    assert float(stats_line[3]) == pytest.approx(mean_dist, abs=1e-15)
    assert float(stats_line[4]) == success
    assert int(stats_line[5]) == 3


def test_parallel_workers_reproduce_serial_output(tmp_path, monkeypatch):
    # One usable core runs the episodes in this process, two in a pool.
    for cores in (1, 2):
        monkeypatch.setattr(pool, "usable_cores", lambda cores=cores: cores)
        run_bench(BenchSpec(tiny_scenario(), ("rotogo",), episodes=2, base_seed=9, out_dir=tmp_path / str(cores)))
    assert (tmp_path / "2" / "stats.csv").read_bytes() == (tmp_path / "1" / "stats.csv").read_bytes()
    assert (tmp_path / "2" / "episodes.jsonl").read_bytes() == (tmp_path / "1" / "episodes.jsonl").read_bytes()


def _mpc_run_failing_seed_8(cfg):
    """``mpc_run``, except that seed 8 raises.  It is a module-level name, so
    that a pool worker can import it."""
    if cfg.seed == 8:
        raise RuntimeError("seed 8 fails on purpose")
    return mpc_run(cfg)


@pytest.mark.parametrize("cores", [1, 2])
def test_a_failing_episode_is_recorded_and_skipped(tmp_path, monkeypatch, capsys, cores):
    """An episode that raises leaves a failure row, drops out of the stats
    and the traces, and changes no other byte; the command still exits 0."""
    monkeypatch.setattr(pool, "usable_cores", lambda: cores)
    modes = ("rotogo", "robustness")
    clean = run_bench(BenchSpec(tiny_scenario(), modes, episodes=3, base_seed=7, out_dir=tmp_path / "clean"))
    cfg_path = tmp_path / "cfg.json"
    tiny_scenario().save(cfg_path)
    monkeypatch.setattr(bench, "mpc_run", _mpc_run_failing_seed_8)
    code = main(["bench", "--config", str(cfg_path), "--modes", "rotogo,robustness", "--episodes", "3",
                 "--seed", "7", "--out", str(tmp_path / "failed")])
    err = capsys.readouterr().err
    assert code == 0
    error = "RuntimeError: seed 8 fails on purpose"
    assert err == "".join(f"episode failed: mode={mode} episode=1: {error}\n" for mode in modes)

    lines = (tmp_path / "clean" / "episodes.jsonl").read_bytes().splitlines(keepends=True)
    clean_rows = [(json.loads(line), line) for line in lines]
    want_rows = []
    for mode in modes:
        want_rows += [line for row, line in clean_rows if row["mode"] == mode and row["episode"] != 1]
        failed = {"scenario": "tiny", "mode": mode, "episode": 1, "seed": 8, "failed": True, "error": error}
        want_rows.append(json.dumps(failed, sort_keys=True).encode() + b"\n")
    assert (tmp_path / "failed" / "episodes.jsonl").read_bytes() == b"".join(want_rows)

    kept = [batch_stats([run for episode, run in clean.results[mode] if episode != 1]) for mode in modes]
    assert [row.episodes for row in kept] == [2, 2]
    assert (tmp_path / "failed" / "stats.csv").read_text() == format_stats_csv(kept)
    traces = {p.name: p.read_bytes() for p in (tmp_path / "failed" / "traces").iterdir()}
    assert sorted(traces) == [f"tiny_{mode}_{e:03d}.csv" for mode in sorted(modes) for e in (0, 2)]
    assert all(data == (tmp_path / "clean" / "traces" / name).read_bytes() for name, data in traces.items())


def test_an_unguarded_script_fails_loudly(tmp_path):
    """Each spawned worker re-runs a script that has no entry-point guard,
    and dies when its own ``run_bench`` starts a pool; the batch must raise,
    not record every episode as failed."""
    script = tmp_path / "unguarded.py"
    script.write_text(
        "import rotogo.pool\n"
        "from rotogo.bench import BenchSpec, run_bench\n"
        "from rotogo.scenarios import ScenarioConfig\n"
        "rotogo.pool.usable_cores = lambda: 2\n"
        "cfg = ScenarioConfig(name='tiny', formula='G[0,2] (x > 0.5)', robot_start=(1.0, 1.0, 0.0, 0.0),\n"
        "                     mission_horizon=2.0, env_noise_std=0.0, first_attempt_iterations=8, cmaes_iterations=4)\n"
        "run_bench(BenchSpec(cfg, ('rotogo',), episodes=2))\n",
        encoding="utf-8",
    )
    src = str(Path(bench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode != 0
    assert "RuntimeError: the episode workers died" in done.stderr
    assert 'must guard its entry point with `if __name__ == "__main__":`' in done.stderr


def test_bench_episode_seeds_derive_from_base():
    spec = BenchSpec(scenario=tiny_scenario(), modes=("rotogo",), episodes=2, base_seed=40)
    result = run_bench(spec)
    seeds = [run.seed for _, run in result.results["rotogo"]]
    assert seeds == [40, 41]


def test_paired_static_avoid_rows_favor_rotogo(tmp_path):
    # One static episode per mode of the avoid scenario: the rotogo row's
    # min distance is at least the robustness row's.
    from dataclasses import replace
    from rotogo.scenarios import scenario_phi_avoid

    scenario = replace(scenario_phi_avoid(), env_noise_std=0.0)
    spec = BenchSpec(scenario=scenario, modes=("rotogo", "robustness"), episodes=1, base_seed=3, out_dir=tmp_path)
    result = run_bench(spec)
    rows = {row.mode: row for row in result.stats}
    assert len(rows) == 2
    assert rows["rotogo"].mean_min_distance >= rows["robustness"].mean_min_distance
    lines = (tmp_path / "stats.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one row per mode


def test_format_stats_csv_handles_all_infinite():
    from rotogo.mpc import StatsRow

    row = StatsRow("p", "rotogo", 1, math.nan, 0.0, 1.0)
    text = format_stats_csv([row])
    assert "nan" in text


# ---------------------------------------------------------------------------
# CLI


def test_monitor_satisfied_exit_zero(tmp_path, capsys):
    trace = goal_trace(tmp_path, [4.5] * 5)
    code = main(["monitor", "F[0,0.4] (x > 4)", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: satisfied" in out
    assert "robustness: 0.5" in out


def test_monitor_violated_exit_one(tmp_path, capsys):
    trace = goal_trace(tmp_path, [1.0] * 5)
    code = main(["monitor", "G[0,0.4] (x > 100)", str(trace)])
    assert code == 1
    assert "verdict: violated" in capsys.readouterr().out


def test_monitor_formula_bounds_round_like_trace_times(tmp_path, capsys):
    # 0.0000025 s is tick 2 both as a trace time and as the interval's open
    # upper bound, so the positive sample lies outside the window.
    path = tmp_path / "half_tick.csv"
    path.write_text("t,x\n0,-1\n0.0000025,1\n", encoding="utf-8")
    code = main(["monitor", "F[0,0.0000025) (x > 0)", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: violated" in out
    assert "robustness: -1.0" in out


def test_monitor_missing_file_exit_two(tmp_path, capsys):
    code = main(["monitor", "(x > 0)", str(tmp_path / "nope.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.1,1.0,2.0", "3 cells, the header has 2"),  # an extra cell
        ("0.1", "1 cells, the header has 2"),  # a short row
        ("0.1,abc", "could not convert string to float: 'abc'"),
        ("0.1,nan", "x is nan, not a finite number"),
        ("0.1,-inf", "x is -inf, not a finite number"),
        ("0.0,1.0", "time 0.0 s is not after the previous sample's 0.0 s"),  # a repeated timestamp
        ("-0.1,1.0", "time -0.1 s is not after the previous sample's 0.0 s"),  # a decreasing one
        ("-inf,1.0", "cannot convert float infinity to integer"),
        ("1e300,1.0", "time 1e+300 s is out of range"),
    ],
)
def test_monitor_malformed_trace_row_exit_two(tmp_path, capsys, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,x\n0.0,1.0\n{row}\n0.2,1.0\n", encoding="utf-8")
    code = main(["monitor", "(x > 0)", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {path}:3: {message}\n"


@pytest.mark.parametrize("header, name", [("t,x,x", "x"), ("t,x,y,x", "x"), ("t,x,t", "t")])
def test_monitor_repeated_column_exit_two(tmp_path, capsys, header, name):
    # Without the check the last of the repeated columns would silently win.
    path = tmp_path / "bad.csv"
    cells = ",".join(["1"] * (header.count(",")))
    path.write_text(f"{header}\n0,{cells}\n0.1,{cells}\n", encoding="utf-8")
    code = main(["monitor", "(x > 0)", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {path}:1: column {name!r} appears twice\n"


@pytest.mark.parametrize("command", ["monitor", "progress"])
def test_formula_variable_missing_from_trace_exit_two(tmp_path, capsys, command):
    path = tmp_path / "xonly.csv"
    path.write_text("t,x\n0.0,1.0\n0.1,2.0\n", encoding="utf-8")
    code = main([command, "(x > 0) & F[0,0.1] (y > 0)", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # nothing is evaluated
    assert captured.err == f"error: formula variable 'y' is not a column of {path} (columns: x)\n"


def test_monitor_too_deep_formula_exit_two(tmp_path, capsys):
    trace = goal_trace(tmp_path, [1.0] * 3)
    code = main(["monitor", "!" * 3000 + "(x > 0)", str(trace)])
    err = capsys.readouterr().err
    assert code == 2  # not 1, which would claim a violation
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "formula, message",
    [
        ("F[0,1e400] (x > 0)", "1:5: time bound 1e400 s is out of range"),
        ("(1e400 > 1e400)", "1:2: number 1e400 is out of range"),
        ("!" * 3000 + "(x > 0)", "1:101: formula nests deeper than 100 levels"),
        ("(" * 3000, "1:101: formula nests deeper than 100 levels"),
        ("(x + > 0)", "1:6: expected a value, found '>'"),
    ],
    ids=["infinite-bound", "infinite-constant", "deep-not", "deep-parens", "malformed-predicate"],
)
def test_monitor_unparsable_formula_exit_two(tmp_path, capsys, formula, message):
    trace = goal_trace(tmp_path, [1.0] * 3)
    code = main(["monitor", formula, str(trace)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_monitor_reports_rotogo_value(tmp_path, capsys):
    trace = goal_trace(tmp_path, [-1.0, 2.0, 2.0])
    code = main(["monitor", "G[0,0.2] (x > 0)", str(trace), "--rotogo-from", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "rotogo[t_hat=0.0]: -inf" in out


@pytest.mark.parametrize("cut", ["nan", "inf", "-inf"])
def test_monitor_non_finite_rotogo_from_exit_two(tmp_path, capsys, cut):
    trace = goal_trace(tmp_path, [-1.0, 2.0, 2.0])
    code = main(["monitor", "G[0,0.2] (x > 0)", str(trace), f"--rotogo-from={cut}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # checked before anything is evaluated
    assert captured.err == "error: --rotogo-from must be a finite time\n"


def test_progress_prints_each_step(tmp_path, capsys):
    trace = goal_trace(tmp_path, [-1.0, 5.0, 6.0])
    code = main(["progress", "F[0,0.2] (x > 4)", str(trace)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].startswith("t=0:")
    assert out[2] == "t=0.2: true"
    assert out[-1].endswith("satisfied")


@pytest.mark.parametrize(
    "args",
    [["monitor", "G[0,1] (x > 0.5) & F[0,2] (vx > 0.1)", "--rotogo-from", "0.7"], ["progress", "F[0,0.4] (x > 4)"]],
    ids=["monitor", "progress"],
)
def test_quoted_crlf_trace_reads_as_the_plain_one(tmp_path, capsys, args):
    """A quoted CRLF copy of a trace takes the csv module's row scanner and
    the plain file the block parser; the commands print the same."""
    plain = goal_trace(tmp_path, [1.0, 2.5, 4.5, 5.0, 3.0, 0.25, -0.0, 1e-310])
    quoted = tmp_path / "quoted.csv"
    with open(plain, encoding="utf-8", newline="") as src, open(quoted, "w", encoding="utf-8", newline="") as dst:
        csv.writer(dst, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(csv.reader(src))
    assert quoted.read_bytes().startswith(b'"t","x",') and b"\r\n" in quoted.read_bytes()
    outputs = []
    for path in (plain, quoted):
        code = main([args[0], args[1], str(path), *args[2:]])
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append((code, captured.out))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].count("\n") >= 3


#: SHA-256 over the stdout and exit codes of `rotogo monitor --rotogo-from`
#: and `rotogo progress` on the seeded corpus below.
MONITORING_DIGEST = "c52bfcdfee31dcc0ef3e5cf5f203238fa0f4660256dc561e3cea79a507ddd206"


def test_monitoring_outputs_are_pinned(tmp_path, capsys):
    """The offline monitoring commands print the same bytes and exit with
    the same codes on a seeded corpus: 201-sample random walks of the robot
    and the environment point, under phi_avoid, phi_stayin and a nested
    general until."""
    rng = np.random.default_rng(20261019)
    formulas = [
        format_formula(get_scenario("phi_avoid").validate()),
        format_formula(get_scenario("phi_stayin").validate()),
        "G[0,10] ((x > 1) -> F[0,2] (y < 3)) & ((x > 0) U[0,5] (y > 2.6))",
    ]
    h = hashlib.sha256()
    for k in range(6):
        n = 201
        vel = np.clip(np.cumsum(rng.normal(0.0, 0.03, (n, 2)), axis=0), -0.5, 0.5)
        pos = np.clip(rng.uniform(0.5, 4.5, 2) + np.cumsum(vel * 0.1, axis=0), 0.0, 5.0)
        env = 2.5 + np.cumsum(rng.normal(0.0, 0.03, (n, 2)), axis=0)
        columns = np.column_stack([pos, vel, env])
        lines = ["t,x,y,vx,vy,xe,ye"] + [
            f"{i * 0.1:.6f}," + ",".join(repr(float(v)) for v in row) for i, row in enumerate(columns)
        ]
        path = tmp_path / f"trace{k}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cut = f"{int(rng.integers(1, 150)) * 0.1:.1f}"
        for text in formulas:
            for args in (["monitor", text, str(path), "--rotogo-from", cut], ["progress", text, str(path)]):
                code = main(args)
                captured = capsys.readouterr()
                assert captured.err == ""
                h.update(b"%d\0" % code + captured.out.encode() + b"\0")
    assert h.hexdigest() == MONITORING_DIGEST


def test_run_writes_trace_and_summary(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    tiny_scenario().save(cfg_path)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--out", str(out_dir), "--seed", "3"])
    assert code == 0
    assert (out_dir / "tiny_rotogo_3.csv").exists()
    summary = json.loads((out_dir / "tiny_rotogo_3.json").read_text())
    assert summary["scenario"] == "tiny" and summary["seed"] == 3


def test_bench_cli_runs(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    tiny_scenario().save(cfg_path)
    out_dir = tmp_path / "bench"
    code = main([
        "bench", "--config", str(cfg_path), "--episodes", "1",
        "--modes", "rotogo", "--seed", "5", "--out", str(out_dir),
    ])
    assert code == 0
    assert (out_dir / "stats.csv").exists()
    assert "success_rate" in capsys.readouterr().out


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"formula": "F[0,1] (x >"}, "1:12: expected a value"),
        ({"population_size": 3}, "population_size must be >= 4"),
        ({"warm_start_step_size": -1.0}, "warm_start_step_size must be positive"),
        ({"first_attempt_iterations": 0}, "first_attempt_iterations must be >= 1"),
        ({"cmaes_iterations": -3}, "cmaes_iterations must be >= 1"),
        ({"v_max": -1.0}, "v_max must be positive"),
        ({"a_max": 0.0}, "a_max must be positive"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"workspace": (5.0, 0.0, 0.0, 5.0)}, "workspace needs x_min < x_max, got x_min 5.0 and x_max 0.0"),
        ({"workspace": (0.0, 5.0, 2.0, 2.0)}, "workspace needs y_min < y_max, got y_min 2.0 and y_max 2.0"),
        ({"env_noise_std": -0.05}, "env_noise_std must be >= 0, got -0.05"),
        ({"min_distance_radius": -3.0}, "min_distance_radius must be >= 0, got -3.0"),
        ({"mission_horizon": 0.0}, "mission_horizon must be positive"),
        ({"mission_horizon": -1.0}, "mission_horizon must be positive"),
    ],
)
def test_invalid_scenario_exits_two_before_any_output(tmp_path, capsys, overrides, message):
    """An invalid scenario is an error before any episode: ``bench`` exits 2
    and writes no output directory, ``run`` and ``plan`` exit 2 too.  Such a
    config cannot be built, so its JSON is written field by field."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(tiny_scenario()) | overrides), encoding="utf-8")
    out_dir = tmp_path / "out"
    for command in (["bench", "--episodes", "1"], ["run"], ["plan"]):
        code = main([*command, "--config", str(cfg_path), "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2, command
        assert captured.err.startswith("error: ") and message in captured.err, (command, captured.err)
        assert "episode failed" not in captured.err
        assert not out_dir.exists(), command


def test_bench_has_no_workers_option(capsys):
    # The pool takes a worker per usable core; ``taskset -c 0`` runs serially.
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--scenario", "phi_avoid", "--workers", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, message",
    [
        (["run"], "error: seed must be >= 0, got -1\n"),
        # The config is re-seeded, and refuses the seed, before BenchSpec sees it.
        (["bench", "--episodes", "1"], "error: seed must be >= 0, got -1\n"),
    ],
)
def test_negative_seed_exits_two_before_any_episode(tmp_path, capsys, command, message):
    cfg_path = tmp_path / "cfg.json"
    tiny_scenario().save(cfg_path)
    out_dir = tmp_path / "out"
    code = main([*command, "--config", str(cfg_path), "--seed", "-1", "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == message
    assert captured.out == "" and not out_dir.exists()


def test_a_scenario_with_mode_and_seed_is_parsed_once(tmp_path, monkeypatch):
    # A built-in is built with the options, a config file takes them in one
    # replace after it is loaded: one parse and two.
    import rotogo.scenarios
    from rotogo.cli import _load_scenario, build_parser

    parses = []

    def counted(*args, **kwargs):
        parses.append(args[0])
        return parse_formula(*args, **kwargs)

    monkeypatch.setattr(rotogo.scenarios, "parse_formula", counted)
    cfg_path = tmp_path / "cfg.json"
    get_scenario("phi_avoid").save(cfg_path)
    for source, count in ((["--scenario", "phi_avoid"], 1), (["--config", str(cfg_path)], 2)):
        parses.clear()
        cfg = _load_scenario(build_parser().parse_args(["run", *source, "--mode", "robustness", "--seed", "3"]))
        assert len(parses) == count, source
        assert cfg == get_scenario("phi_avoid", "robustness", 3)
        assert cfg.validate() == parse_formula(cfg.formula, aliases=cfg.aliases)


def test_bench_spec_rejects_a_negative_base_seed():
    with pytest.raises(ValueError, match="base_seed must be >= 0, got -3"):
        BenchSpec(scenario=tiny_scenario(), base_seed=-3, episodes=1)


#: SHA-256 over the stdout and the ``--out`` CSV of ``rotogo plan`` for
#: phi_avoid, then phi_stayin.  Like the episode digests it holds for one
#: floating-point environment (numpy with its bundled OpenBLAS on x86-64).
PLAN_DIGEST = "a4e13864572cf26e607a0251d05f18c8a86f7b3cd98bcfcde5cff1f085178d0f"


def test_plan_output_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for scenario in ("phi_avoid", "phi_stayin"):
        assert main(["plan", "--scenario", scenario, "--out", "out"]) == 0
        h.update(capsys.readouterr().out.encode())
        h.update((tmp_path / "out" / f"{scenario}_plan.csv").read_bytes())
    assert h.hexdigest() == PLAN_DIGEST


def test_plan_has_no_mode_option(capsys):
    # A plan is one replan from the initial state with the original formula;
    # the objective mode would change nothing, so it is not an option.
    with pytest.raises(SystemExit) as exit_info:
        main(["plan", "--scenario", "phi_avoid", "--mode", "rotogo"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --mode rotogo" in capsys.readouterr().err


def test_bench_spec_rejects_a_repeated_mode():
    with pytest.raises(ValueError, match="'rotogo' is listed more than once"):
        BenchSpec(scenario=tiny_scenario(), modes=("rotogo", "robustness", "rotogo"), episodes=1)
    with pytest.raises(ValueError, match="at least one mode"):
        BenchSpec(scenario=tiny_scenario(), modes=(), episodes=1)


@pytest.mark.parametrize(
    "modes, message",
    [("rotogo,rotogo", "error: mode 'rotogo' is listed more than once\n"), ("", "error: unknown mode ''\n")],
)
def test_bench_bad_modes_exit_two(tmp_path, capsys, modes, message):
    cfg_path = tmp_path / "cfg.json"
    tiny_scenario().save(cfg_path)
    out_dir = tmp_path / "out"
    code = main(["bench", "--config", str(cfg_path), "--episodes", "1", "--modes", modes, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == message
    assert captured.out == "" and not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "plan", "bench"])
def test_missing_scenario_exits_two(tmp_path, capsys, command):
    # Exit 1 means "violated" for monitor; a usage error is 2 like any other.
    out_dir = tmp_path / "out"
    code = main([command, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: one of --config or --scenario is required\n"
    assert captured.out == "" and not out_dir.exists()


def test_plan_prints_via_points(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    tiny_scenario().save(cfg_path)
    code = main(["plan", "--config", str(cfg_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "via points:" in out


def test_plan_prints_the_plans_robustness_not_its_cost(tmp_path, capsys):
    # Starting above v_max, every plan pays a limit penalty; the robustness
    # line is still the chosen plan's robustness, that of the written
    # trajectory after the initial state with the environment held.
    from dataclasses import replace

    from rotogo.mpc import mission_times
    from rotogo.scenarios import scenario_phi_stayin

    cfg = replace(scenario_phi_stayin(), robot_start=(1.2, 2.5, 0.6, 0.0))
    cfg_path = tmp_path / "cfg.json"
    cfg.save(cfg_path)
    assert main(["plan", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines() if ": " in line)
    cost = float(lines["cost"])
    assert cost > 1e5
    with open(tmp_path / "phi_stayin_plan.csv", encoding="utf-8") as fh:
        rows = np.array([[float(v) for v in line.split(",")] for line in list(fh)[1:]])
    comps = {name: rows[:, k] for k, name in enumerate(("x", "y", "vx", "vy"), 1)}
    comps["xe"], comps["ye"] = (np.full(len(rows), v) for v in cfg.env_start)
    want = robustness(Signal(mission_times(cfg), comps), 0, cfg.validate())
    assert lines["robustness"] == repr(want)
    assert float(lines["robustness"]) != -cost


def test_selftest_zero_cases_vacuous(capsys):
    code = main(["selftest", "--cases", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "warning" in out
    assert "selftest: pass" in out


@pytest.mark.parametrize("cases", ["-1", "-3"])
def test_selftest_negative_cases_exits_two(capsys, cases):
    code = main(["selftest", "--cases", cases])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: cases must be >= 0, got {cases}\n"
    assert captured.out == ""


def test_selftest_negative_seed_exits_two(capsys):
    code = main(["selftest", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: seed must be >= 0, got -1\n"
    assert captured.out == ""


def test_selftest_small_run(capsys):
    code = main(["selftest", "--cases", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "progression_equivalence" in out


@pytest.mark.parametrize("command", ["monitor", "progress"])
def test_monitoring_refuses_an_invalid_config_naming_the_file(tmp_path, capsys, command):
    # The formula parses; the config is refused for a field the command
    # never reads, as every config that cannot be built is.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(tiny_scenario()) | {"population_size": 3}), encoding="utf-8")
    trace = goal_trace(tmp_path, [4.5] * 5)
    code = main([command, "(x > 0)", str(trace), "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {cfg_path}: population_size must be >= 4\n"


def test_monitor_uses_config_aliases(tmp_path, capsys):
    from rotogo.scenarios import scenario_phi_avoid

    cfg_path = tmp_path / "avoid.json"
    scenario_phi_avoid().save(cfg_path)
    trace = goal_trace(tmp_path, [4.5] * 5)
    code = main(["monitor", "F[0,0.4] goal", str(trace), "--config", str(cfg_path)])
    assert code == 0


_MANGLE_CHARS = "xyz()&|!<>-+*^0123456789.e[], FGU"


def _mangled(rng, text: str) -> str:
    """``text`` with one character deleted, replaced or inserted."""
    i = int(rng.integers(0, len(text) + 1))
    c = _MANGLE_CHARS[int(rng.integers(0, len(_MANGLE_CHARS)))]
    return [text[:i] + text[i + 1 :], text[:i] + c + text[i + 1 :], text[:i] + c + text[i:]][int(rng.integers(0, 3))]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32 - 1), st.sampled_from(["monitor", "progress"]))
def test_monitor_and_progress_exit_codes_on_random_inputs(tmp_path, seed, command):
    """Both commands exit in {0, 1, 2}, and monitor exits 1 exactly when the
    trace violates the formula; half of the inputs are mangled."""
    rng = np.random.default_rng(seed)
    f, s = random_instance(rng, max_depth=3, max_temporal=2)
    text = format_formula(f)
    lines = ["t,x,y"] + [
        f"{to_seconds(s.t(i)):.6f},{float(s.components['x'][i])!r},{float(s.components['y'][i])!r}"
        for i in range(len(s))
    ]
    csv_text = "\n".join(lines) + "\n"
    mangled = rng.random() < 0.5
    if mangled:
        if rng.random() < 0.5:
            text = _mangled(rng, text)
        else:
            csv_text = _mangled(rng, csv_text)
    path = tmp_path / "trace.csv"
    path.write_text(csv_text, encoding="utf-8")
    args = [command, text, str(path)]
    if command == "monitor" and rng.random() < 0.5:
        args += ["--rotogo-from", repr(float(rng.uniform(-1.0, 30.0)))]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(args)
    assert code in (0, 1, 2)
    if not mangled:
        assert code == (1 if command == "monitor" and not sat(s, s.t0, f) else 0)
    elif command == "monitor" and code != 2:
        trace = read_trace_csv(path)
        assert (code == 1) == (not sat(trace, trace.t0, parse_formula(text)))


# ---------------------------------------------------------------------------
# Scenario config JSON: every error names the file and the field


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"name": "a", "formula": "(x > 0)", "via_points": "x"}', "field 'via_points' must be an integer, got string"),
        ("[1, 2]", "a scenario config must be a JSON object, not array"),
        ('{"name": "a",\n "formula": 3,\n', ":3:1: not valid JSON"),
        ('{"name": "a", "formula": "(x > 0)", "env_start": [1, NaN]}', "field 'env_start' must be an array of 2 finite"),
        ('{"formula": "(x > 0)"}', "scenario config lacks 'name'"),
        ('{"name": "a", "formula": "G[0,1] (x > )"}', "json: field 'formula': 1:13: expected a value, found ')'"),
        (
            '{"name": "a", "formula": "G[0,1] a", "aliases": {"a": "x > )"}}',
            "json: field 'formula': 1:5: in alias 'a': expected a value, found ')'",
        ),
    ],
)
def test_config_errors_name_file_and_field(tmp_path, capsys, text, message):
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        ScenarioConfig.load(path)
    assert str(info.value).startswith(f"{path}") and message in str(info.value)
    trace = goal_trace(tmp_path, [4.5] * 5)
    assert main(["monitor", "(x > 0)", str(trace), "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_config_with_a_byte_order_mark_loads(tmp_path):
    # Excel and some editors write UTF-8 with a leading byte-order mark.
    from rotogo.scenarios import scenario_phi_avoid

    path = tmp_path / "bom.json"
    scenario_phi_avoid().save(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert ScenarioConfig.load(path) == scenario_phi_avoid()


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
#: Objects with the config's own keys, so that the field checks are reached.
_config_like = st.fixed_dictionaries(
    {"name": st.text(max_size=4) | _json_values, "formula": st.just("(x > 0)") | _json_values},
    optional={
        f: _json_values | st.lists(st.floats(), min_size=2, max_size=4)
        for f in ScenarioConfig.__dataclass_fields__
        if f not in ("name", "formula")
    },
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given((_json_values | _config_like).map(lambda v: json.dumps(v).encode()) | st.binary(max_size=40))
def test_any_config_json_raises_only_value_errors(tmp_path, content):
    """Any JSON value, or any bytes, loads or fails with a ValueError that
    starts with the path; then the CLI exits 2 with that message."""
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    try:
        ScenarioConfig.load(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:")
    else:
        return
    trace = tmp_path / "trace.csv"
    trace.write_text("t,x\n0.000000,1.0\n", encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(["monitor", "(x > 0)", str(trace), "--config", str(path)]) == 2
    assert err.getvalue().startswith(f"error: {path}:")
