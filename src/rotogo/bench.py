"""Benchmark orchestration: episode batches, statistics, and file outputs.

A bench run executes the configured scenario for a number of episodes per
objective mode, with per-episode seeds derived as base_seed plus the episode
index, and writes three artifacts into the output directory:

* ``stats.csv``: one aggregate row per (problem, mode),
* ``episodes.jsonl``: one JSON object per episode,
* ``traces/<problem>_<mode>_<episode>.csv``: the executed trace signals.

Outputs are byte-for-byte reproducible for a fixed spec: episodes are
independent and seeded, results are collected in episode order, and all
files are written by the orchestrating process alone.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Optional

from .mpc import RunResult, StatsRow, batch_stats, mpc_run
from .scenarios import MODES, ScenarioConfig
from .signals import write_trace_csv

STATS_HEADER = "problem,mode,mean_robustness,mean_min_distance,success_rate,episodes"


@dataclass(frozen=True)
class BenchSpec:
    scenario: ScenarioConfig
    modes: tuple[str, ...] = MODES
    episodes: int = 100
    base_seed: int = 0
    out_dir: Optional[Path] = None
    workers: int = 1

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if not self.modes:
            raise ValueError("modes must name at least one mode")
        for i, mode in enumerate(self.modes):
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
            if mode in self.modes[:i]:
                raise ValueError(f"mode {mode!r} is listed more than once")


@dataclass
class BenchResult:
    stats: list[StatsRow]
    results: dict[str, list[tuple[int, RunResult]]]  # (episode index, result)
    failures: dict[str, list[tuple[int, str]]] = field(default_factory=dict)


def run_bench(spec: BenchSpec) -> BenchResult:
    """Run all episodes for every requested mode and write output files.

    An invalid scenario raises ValueError before any episode runs or any
    file is written.  Episode failures are recorded and skipped, never abort
    the batch.  Results are collected in episode order regardless of worker
    scheduling.
    """
    spec.scenario.validate()
    out = BenchResult(stats=[], results={}, failures={})
    jsonl_rows: list[dict] = []
    for mode in spec.modes:
        configs = [
            spec.scenario.with_mode(mode).with_seed(spec.base_seed + episode)
            for episode in range(spec.episodes)
        ]
        results: list[tuple[int, RunResult]] = []
        failures: list[tuple[int, str]] = []
        for episode, outcome in enumerate(_episode_outcomes(configs, spec.workers)):
            try:
                results.append((episode, outcome()))
            except Exception as exc:  # noqa: BLE001 - episode isolation
                failures.append((episode, f"{type(exc).__name__}: {exc}"))
        out.results[mode] = results
        out.failures[mode] = failures
        if results:
            out.stats.append(batch_stats([r for _, r in results]))
        for episode, result in results:
            row = result.summary()
            row["episode"] = episode
            jsonl_rows.append(row)
        for episode, message in failures:
            jsonl_rows.append(
                {
                    "scenario": spec.scenario.name,
                    "mode": mode,
                    "episode": episode,
                    "seed": spec.base_seed + episode,
                    "failed": True,
                    "error": message,
                }
            )

    if spec.out_dir is not None:
        _write_outputs(spec, out, jsonl_rows)
    return out


def _episode_outcomes(configs: list[ScenarioConfig], workers: int) -> Iterator[Callable[[], RunResult]]:
    """One call per episode, in episode order, that returns its result or
    raises its error; with several workers the episodes run in a process
    pool, all submitted up front."""
    if workers == 1:
        yield from (partial(mpc_run, cfg) for cfg in configs)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(mpc_run, cfg) for cfg in configs]
        yield from (future.result for future in futures)


def format_stats_csv(stats: list[StatsRow]) -> str:
    lines = [STATS_HEADER]
    for row in stats:
        lines.append(
            ",".join(
                [
                    row.problem,
                    row.mode,
                    _csv_float(row.mean_robustness),
                    _csv_float(row.mean_min_distance),
                    _csv_float(row.success_rate),
                    str(row.episodes),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _csv_float(v: float) -> str:
    if math.isnan(v):
        return "nan"
    return repr(float(v))


def _write_outputs(spec: BenchSpec, result: BenchResult, jsonl_rows: list[dict]) -> None:
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "stats.csv").write_text(format_stats_csv(result.stats), encoding="utf-8")
    with open(out_dir / "episodes.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for row in jsonl_rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    trace_dir = out_dir / "traces"
    trace_dir.mkdir(exist_ok=True)
    for mode, results in result.results.items():
        for episode, run in results:
            name = f"{spec.scenario.name}_{mode}_{episode:03d}.csv"
            write_trace_csv(run.trace, trace_dir / name)
