"""One-line mutants of the package, each with the tests that should kill it.

Run from the repository root::

    python tests/mutants.py

Each entry of :data:`MUTANTS` is (file, old text, new text, killing tests).
For each entry the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, replaces the one occurrence
of the old text in the file with the new text, runs the killing tests
there with ``pytest -x`` and prints "killed" if they fail or "survived"
if they pass, with the file and the line of the old text.  An old text
found other than once prints "stale": the code has moved and the entry
needs mending.

The file has no ``test_`` prefix, so the test suite does not collect it.
A survivor marks a change the named tests do not see; it is a finding,
not a failure, and the script exits 0 whatever the outcomes.  It exits 1
only if the killing tests fail on the unmutated copy.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FASTEVAL = "src/rotogo/fasteval.py"
MPC = "src/rotogo/mpc.py"
PARSER = "src/rotogo/parser.py"
PLANNING = "src/rotogo/planning.py"
SIGNALS = "src/rotogo/signals.py"
SCENARIOS = "src/rotogo/scenarios.py"
_NUMBER = r"(?P<number>(?=\.?[0-9])[0-9.]+(?:[eE][+-]?[0-9]+)?)"
_NOT_PLAIN = """if any(c in text for c in '"\\0\\x1c\\x1d\\x1e\\x1f')"""
_FIELD_LIMIT = " or len(text) > limit and max(map(len, block)) > limit:"


def _every_check(test_id: str) -> str:
    return f"tests/test_scenarios.py::test_every_way_of_building_a_config_runs_every_check[{test_id}]"


def _folded(test_id: str) -> str:
    return f"tests/test_fasteval.py::test_folded_negation_constant_power_and_zero_power_match_reference[{test_id}]"


def _raise_dropped(old: str, *test_ids: str) -> tuple:
    """The construction check ending in ``old`` (its condition and its
    ``raise`` line) made to pass, killed by the listed INVALID cases."""
    condition, raise_line = old.rsplit("\n", 1)
    indent = raise_line[: len(raise_line) - len(raise_line.lstrip())]
    return (SCENARIOS, old, f"{condition}\n{indent}pass", [_every_check(t) for t in test_ids])


MUTANTS = [
    # The formula scanner's guards and its name rule, each dropped alone.
    (PARSER, 'if kind == "other" or kind == "ident" and not _is_name(value):', 'if kind == "other":',
     ["tests/test_parser.py::test_malformed_numbers_are_positioned_errors"]),
    (PARSER, 'if kind == "number" and value.count(".") > 1:', "if False:",
     ["tests/test_parser.py::test_malformed_numbers_are_positioned_errors"]),
    (PARSER, _NUMBER, _NUMBER.replace("0-9", r"\d"),
     ["tests/test_parser.py::test_malformed_numbers_are_positioned_errors"]),
    (PARSER, 'scanned.lastgroup == "ident" and _is_name(name)', 'scanned.lastgroup == "ident"',
     ["tests/test_parser.py::test_alias_the_parser_cannot_read_is_rejected[2nd-not a name]"]),
    (PARSER, "        if not isinstance(value, str):\n            raise", "        if False:\n            raise",
     ["tests/test_parser.py::test_an_alias_is_text_parsed_under_the_nesting_limit"]),
    # The plain trace reader's guards, each dropped alone.
    (SIGNALS, _NOT_PLAIN, _NOT_PLAIN.replace('"\\0', "\\0"),
     ["tests/test_signals.py::test_text_csv_reads_otherwise_takes_the_row_reader[quote]"]),
    (SIGNALS, _NOT_PLAIN, _NOT_PLAIN.replace("\\0", ""),
     ["tests/test_signals.py::test_text_csv_reads_otherwise_takes_the_row_reader[nul]"]),
    (SIGNALS, _NOT_PLAIN, _NOT_PLAIN.replace("\\x1c\\x1d\\x1e\\x1f", ""),
     ["tests/test_signals.py::test_a_cell_float_does_not_strip_is_the_row_readers_error"]),
    # Also the field-limit mutant of the reader that parsed blocks itself:
    # that reader's line-length check was this one.
    (SIGNALS, _FIELD_LIMIT, ":",
     ["tests/test_signals.py::test_a_plain_cell_at_and_over_the_field_limit[1]"]),
    (SIGNALS, "        if filled < 2:", "        if False:",
     ["tests/test_signals.py::test_no_warning_leaves_the_reader"]),
    # CRLF and CR line ends on the fast path: the header's and a blank line's.
    (SIGNALS, 'next(body).rstrip("\\r\\n")', 'next(body).removesuffix("\\n")',
     ["tests/test_signals.py::test_crlf_and_cr_traces_take_the_numpy_fast_path"]),
    (SIGNALS, ' - block.count("\\r\\n")', "",
     ["tests/test_signals.py::test_no_warning_leaves_the_reader[blank-crlf]"]),
    (SIGNALS, ' - block.count("\\r")', "",
     ["tests/test_signals.py::test_no_warning_leaves_the_reader[blank-cr]"]),
    # The construction checks of a scenario configuration, each made to pass.
    _raise_dropped(
        '        if self.objective_mode not in MODES:\n            raise ValueError(f"objective_mode must be one of {MODES}")',
        "overrides0-objective_mode must be one of ('robustness', 'rotogo')",
    ),
    _raise_dropped(
        '        if self.via_points < 1:\n            raise ValueError("via_points must be >= 1")',
        "overrides1-via_points must be >= 1",
    ),
    _raise_dropped(
        "        except ParseError as exc:\n"
        "            raise ValueError(f\"field 'formula': {exc}\") from None",
        "overrides2-field 'formula': 1:12: expected a value, found 'end of input'",
    ),
    _raise_dropped(
        '        if not is_bounded(f):\n            raise ValueError("the scenario formula must be bounded (finite horizon)")',
        "overrides3-the scenario formula must be bounded (finite horizon)",
    ),
    _raise_dropped(
        "            if not abs(getattr(self, name)) < 1e300:\n"
        '                raise ValueError(f"{name} must be under 1e300 seconds, got {getattr(self, name)}")',
        "overrides4-mission_horizon must be under 1e300 seconds, got 1e+308",
        "overrides5-env_step_period must be under 1e300 seconds, got -1e+300",
    ),
    _raise_dropped(
        '        if to_ticks(self.mission_horizon) <= 0:\n            raise ValueError("mission_horizon must be positive")',
        "overrides6-mission_horizon must be positive",
        "overrides7-mission_horizon must be positive",
    ),
    _raise_dropped(
        "        if horizon(f) > to_ticks(self.mission_horizon):\n"
        '            raise ValueError("mission_horizon is shorter than the formula horizon")',
        "overrides8-mission_horizon is shorter than the formula horizon",
    ),
    _raise_dropped(
        '            if to_ticks(getattr(self, name)) <= 0:\n                raise ValueError(f"{name} must be positive")',
        "overrides9-trace_period must be positive",
        "overrides10-replan_period must be positive",
        "overrides11-env_step_period must be positive",
    ),
    _raise_dropped(
        "        if to_ticks(self.replan_period) % trace_dt != 0:\n"
        '            raise ValueError("replan_period must be a multiple of trace_period")',
        "overrides12-replan_period must be a multiple of trace_period",
    ),
    _raise_dropped(
        "        if to_ticks(self.mission_horizon) % trace_dt != 0:\n"
        '            raise ValueError("mission_horizon must be a multiple of trace_period")',
        "overrides13-mission_horizon must be a multiple of trace_period",
    ),
    _raise_dropped(
        "        if trace_dt % to_ticks(self.env_step_period) != 0:\n"
        '            raise ValueError("trace_period must be a multiple of env_step_period")',
        "overrides14-trace_period must be a multiple of env_step_period",
    ),
    _raise_dropped(
        '        if self.population_size < 4:\n            raise ValueError("population_size must be >= 4")',
        "overrides15-population_size must be >= 4",
    ),
    _raise_dropped(
        '            if getattr(self, name) < 1:\n                raise ValueError(f"{name} must be >= 1")',
        "overrides16-cmaes_iterations must be >= 1",
        "overrides17-first_attempt_iterations must be >= 1",
    ),
    _raise_dropped(
        '            if not getattr(self, name) > 0:\n                raise ValueError(f"{name} must be positive")',
        "overrides18-initial_step_size must be positive",
        "overrides19-warm_start_step_size must be positive",
        "overrides20-v_max must be positive",
        "overrides21-a_max must be positive",
    ),
    _raise_dropped(
        '        if self.seed < 0:\n            raise ValueError(f"seed must be >= 0, got {self.seed}")',
        "overrides22-seed must be >= 0, got -1",
    ),
    _raise_dropped(
        "        if not x_min < x_max:\n"
        '            raise ValueError(f"workspace needs x_min < x_max, got x_min {x_min} and x_max {x_max}")',
        "overrides23-workspace needs x_min < x_max, got x_min 5.0 and x_max 0.0",
    ),
    _raise_dropped(
        "        if not y_min < y_max:\n"
        '            raise ValueError(f"workspace needs y_min < y_max, got y_min {y_min} and y_max {y_max}")',
        "overrides24-workspace needs y_min < y_max, got y_min 2.0 and y_max 2.0",
    ),
    _raise_dropped(
        "            if not getattr(self, name) >= 0:\n"
        '                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")',
        "overrides25-env_noise_std must be >= 0, got -0.05",
        "overrides26-min_distance_radius must be >= 0, got -3.0",
    ),
    # Baseline's killed mutants, as they read in today's code.
    (FASTEVAL, "out[:, mask] = np.maximum(levels[p][:, a], levels[p][:, b])", "out[:, mask] = levels[p][:, a]",
     ["tests/test_fasteval.py::test_matches_reference_at_every_index"]),
    (FASTEVAL, '"left" if interval.lower_closed else "right"', '"left"',
     ["tests/test_fasteval.py::test_windows_respect_open_and_closed_bounds"]),
    ("src/rotogo/progression.py", "if isinstance(l, Bottom) or isinstance(r, Bottom):", "if isinstance(l, Bottom):",
     ["tests/test_progression.py::test_simplify_rules"]),
    (PLANNING, "outside = (planes[0] < self._lower)", "outside = (planes[0] <= self._lower)",
     ["tests/test_planning.py::test_cost_at_the_penalty_boundaries_is_the_reference_sum"]),
    ("src/rotogo/cmaes.py", "h_threshold = 1.4 + 2 / (n + 1)", "h_threshold = 1.4 + 2 / n",
     ["tests/test_cmaes.py::test_minimize_matches_reference_bit_for_bit"]),
    (PLANNING, "knots[1:-1, 1] = 0.5 * (", "knots[1:-1, 1] = 0.4 * (",
     ["tests/test_planning.py::test_spline_basis_matches_the_direct_evaluation"]),
    # The spline map's exact start velocity, dropped.
    (PLANNING, "    basis[1, 1, times == 0.0] = 1.0\n", "",
     ["tests/test_planning.py::test_the_map_at_t0_is_exactly_the_start_state"]),
    (PARSER, "->|<=|>=|", "->|<=|", ["tests/test_parser.py::test_comparison_normalization"]),
    (MPC, "sigma = max(min(sigma, 0.5 * cfg.v_max * duration), 1e-3)", "sigma = max(sigma, 1e-3)",
     ["tests/test_mpc.py::test_episode_digests_are_pinned[phi_avoid-robustness-1]"]),
    (SIGNALS, 'if header[0] != "t" or len(set(header)) < len(header):', 'if header[0] != "t":',
     ["tests/test_bench_cli.py::test_monitor_repeated_column_exit_two"]),
    ("src/rotogo/bench.py", '        return "nan"', '        return "NaN"',
     ["tests/test_bench_cli.py::test_format_stats_csv_handles_all_infinite"]),
    (MPC, " for r in results if math.isfinite(r.final_robustness)]", " for r in results]",
     ["tests/test_mpc.py::test_batch_stats_excludes_infinities_from_mean"]),
    (SCENARIOS, "if not y_min < y_max:", "if not y_min <= y_max:",
     [_every_check("overrides24-workspace needs y_min < y_max, got y_min 2.0 and y_max 2.0")]),
    # The compiler's constant folds of a negation and a power, and a zeroth power.
    (FASTEVAL, "            if isinstance(child, _Const):\n                return _Const(-child.value)\n", "",
     [_folded("neg-of-folded")]),
    (FASTEVAL, "return _Const(_int_pow(base.value, e.exponent))", "return _Const(base.value)",
     [_folded("constant-pow")]),
    (FASTEVAL, "(zero, self._const(1.0)), np.add)", "(zero, self._const(1.0)), np.subtract)", [_folded("pow-0")]),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _tests_pass(where: Path, tests: list[str]) -> bool:
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    run = subprocess.run(command, cwd=where, capture_output=True, env=dict(os.environ, PYTHONPATH="src"))
    return run.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        if not _tests_pass(clean, sorted({t for m in MUTANTS for t in m[3]})):
            print("the killing tests fail on the unmutated copy")
            return 1
        counts: dict[str, int] = {}
        for i, (file, old, new, tests) in enumerate(MUTANTS, 1):
            copy = Path(tmp) / f"mutant{i}"
            shutil.copytree(clean, copy)
            text = (copy / file).read_text(encoding="utf-8")
            if text.count(old) != 1:
                outcome, line = "stale", "?"
            else:
                (copy / file).write_text(text.replace(old, new), encoding="utf-8")
                outcome = "survived" if _tests_pass(copy, tests) else "killed"
                line = text[: text.index(old)].count("\n") + 1
            shutil.rmtree(copy)
            counts[outcome] = counts.get(outcome, 0) + 1
            print(f"{i:3} {outcome:8} {file}:{line}", flush=True)
    print(", ".join(f"{n} {outcome}" for outcome, n in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
