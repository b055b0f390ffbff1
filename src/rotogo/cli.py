"""Command line front end.

Subcommands: ``monitor`` (verdict and robustness of a trace), ``progress``
(step-by-step formula progression over a trace), ``plan`` (one planning
problem from a scenario's initial state), ``run`` (one MPC episode),
``bench`` (episode batches with statistics), and ``selftest`` (the
randomized property corpus).

Exit codes: ``monitor`` exits 0 when the trace satisfies the formula, 1 when
it violates it, and 2 on input errors or any other failure (a formula
nested too deeply to evaluate, say).  ``selftest`` exits 0 only when every
property passes.  All other subcommands exit 0 on success and 2 on errors.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

# Module-level imports are what ``monitor`` and ``progress`` use (the
# argument parser's scenario and mode choices included); the other
# commands import the planner, MPC and benchmark modules when they run.
from .formula import Formula, expr_variables, formula_predicates, to_seconds, to_ticks
from .parser import format_formula, parse_formula
from .progression import monitor_step, start_monitor
from .scenarios import BUILTIN_SCENARIOS, MODES, ScenarioConfig, get_scenario
from .semantics import robustness, rotogo, sat
from .signals import read_trace_csv


def _fmt_value(v: float) -> str:
    if v == math.inf:
        return "+inf"
    if v == -math.inf:
        return "-inf"
    return repr(v)


def _load_scenario(args) -> ScenarioConfig:
    if getattr(args, "config", None):
        cfg = ScenarioConfig.load(args.config)
    elif getattr(args, "scenario", None):
        cfg = get_scenario(args.scenario)
    else:
        raise ValueError("one of --config or --scenario is required")
    if getattr(args, "mode", None):
        cfg = cfg.with_mode(args.mode)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def _aliases_from(args) -> dict:
    if getattr(args, "config", None):
        return ScenarioConfig.load(args.config).aliases
    return {}


def _read_trace_for(f: Formula, path):
    """The trace at ``path``, checked to hold every variable ``f`` reads."""
    trace = read_trace_csv(path)
    for p in formula_predicates(f):
        for name in sorted(expr_variables(p.fn)):
            if name not in trace.components:
                columns = ", ".join(trace.components)
                raise ValueError(f"formula variable {name!r} is not a column of {path} (columns: {columns})")
    return trace


def cmd_monitor(args) -> int:
    if args.rotogo_from is not None and not math.isfinite(args.rotogo_from):
        raise ValueError("--rotogo-from must be a finite time")
    f = parse_formula(args.formula, aliases=_aliases_from(args))
    trace = _read_trace_for(f, args.trace)
    t0 = trace.t0
    verdict = sat(trace, t0, f)
    print(f"verdict: {'satisfied' if verdict else 'violated'}")
    print(f"robustness: {_fmt_value(robustness(trace, t0, f))}")
    if args.rotogo_from is not None:
        t_hat = to_ticks(args.rotogo_from)
        print(f"rotogo[t_hat={args.rotogo_from}]: {_fmt_value(rotogo(trace, t0, t_hat, f))}")
    return 0 if verdict else 1


def cmd_progress(args) -> int:
    f = parse_formula(args.formula, aliases=_aliases_from(args))
    trace = _read_trace_for(f, args.trace)
    monitor = start_monitor(f, trace.t0)
    print(f"t={to_seconds(trace.t0):g}: {format_formula(monitor.current)}")
    for i in range(len(trace) - 1):
        monitor = monitor_step(monitor, trace.t(i + 1), trace.state(i))
        print(f"t={to_seconds(monitor.anchor_time):g}: {format_formula(monitor.current)}")
    print(f"verdict after {monitor.step_count} steps: {monitor.verdict}")
    return 0


def cmd_plan(args) -> int:
    import numpy as np

    from .fasteval import Program
    from .mpc import mission_times, replan

    cfg = _load_scenario(args)
    f = cfg.validate()
    # The scored signal starts at the initial state, which every candidate shares.
    history = np.array([*cfg.robot_start, *cfg.env_start])[:, np.newaxis]
    plan = replan(cfg, Program(mission_times(cfg), f, 1), history, seed=cfg.seed)
    record = plan.record
    print(f"scenario: {cfg.name}")
    print(f"cost: {record.cost!r}")
    print(f"robustness: {_fmt_value(record.objective_robustness)}")
    print("via points:")
    for j, (x, y) in enumerate(record.via_points, 1):
        print(f"  {j}: ({x:.4f}, {y:.4f})")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{cfg.name}_plan.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,x,y,vx,vy,ax,ay\n")
            for row in np.column_stack([plan.times, plan.pos, plan.vel, plan.acc]):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        print(f"trajectory written to {path}")
    return 0


def cmd_run(args) -> int:
    import json

    from .mpc import mpc_run
    from .signals import write_trace_csv

    cfg = _load_scenario(args)
    result = mpc_run(cfg)
    print(f"scenario: {result.scenario} mode: {result.mode} seed: {result.seed}")
    print(f"final robustness: {_fmt_value(result.final_robustness)}")
    print(f"success: {result.success}")
    print(f"min distance: {result.min_distance!r}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        trace_path = out / f"{result.scenario}_{result.mode}_{result.seed}.csv"
        write_trace_csv(result.trace, trace_path)
        summary_path = out / f"{result.scenario}_{result.mode}_{result.seed}.json"
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(result.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"trace written to {trace_path}")
    return 0


def cmd_bench(args) -> int:
    from .bench import BenchSpec, run_bench

    cfg = _load_scenario(args)
    modes = tuple(args.modes.split(",")) if args.modes is not None else MODES
    spec = BenchSpec(
        scenario=cfg,
        modes=modes,
        episodes=args.episodes,
        base_seed=args.seed if args.seed is not None else 0,
        out_dir=Path(args.out) if args.out else None,
        workers=args.workers,
    )
    result = run_bench(spec)
    for row in result.stats:
        print(
            f"{row.problem} {row.mode}: success_rate={row.success_rate:.3f} "
            f"mean_robustness={row.mean_robustness:.4f} mean_min_distance={row.mean_min_distance:.4f} "
            f"episodes={row.episodes}"
        )
    for mode, failures in result.failures.items():
        for episode, message in failures:
            print(f"episode failed: mode={mode} episode={episode}: {message}", file=sys.stderr)
    if args.out:
        print(f"outputs written to {args.out}")
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    if args.cases == 0:
        print("warning: --cases 0 requested; all properties pass vacuously")
    result = run_selftest(cases=args.cases, seed=args.seed)
    width = max(len(r.name) for r in result.reports)
    for report in result.reports:
        status = "pass" if report.passed else "FAIL"
        print(f"{report.name:<{width}}  cases={report.cases:<6d} failures={report.failures:<4d} {status}")
        if report.detail:
            print("  counterexample:")
            for line in report.detail.splitlines():
                print(f"    {line}")
    print("selftest:", "pass" if result.passed else "FAIL")
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rotogo", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monitor", help="evaluate a formula over a trace CSV")
    p.add_argument("formula")
    p.add_argument("trace")
    p.add_argument("--rotogo-from", type=float, default=None, metavar="SECONDS",
                   help="also report robustness-to-go with the cut at this time")
    p.add_argument("--config", default=None, help="scenario config providing predicate aliases")
    p.set_defaults(fn=cmd_monitor)

    p = sub.add_parser("progress", help="print the progressed formula after each sample")
    p.add_argument("formula")
    p.add_argument("trace")
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_progress)

    for name, fn, help_text in (
        ("plan", cmd_plan, "solve one planning problem from the initial state"),
        ("run", cmd_run, "run one MPC episode"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="scenario config JSON file")
        p.add_argument("--scenario", default=None, choices=sorted(BUILTIN_SCENARIOS))
        if name == "run":
            p.add_argument("--mode", default=None, choices=MODES)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(fn=fn)

    p = sub.add_parser("bench", help="run an episode batch and write statistics")
    p.add_argument("--config", default=None)
    p.add_argument("--scenario", default=None, choices=sorted(BUILTIN_SCENARIOS))
    p.add_argument("--modes", default=None, help="comma-separated subset of modes")
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--seed", type=int, default=None, help="base seed")
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("selftest", help="run the randomized property corpus")
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "selftest" and args.seed is None:
        from .selftest import DEFAULT_SEED

        args.seed = DEFAULT_SEED
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 means "violated" for monitor, so no other failure may use it.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
