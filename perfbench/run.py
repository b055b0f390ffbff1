"""rotogo benchmark: closed-loop MPC episodes, offline monitoring and the
property corpus, timed end to end and layer by layer from outside.

    python3 perfbench/run.py --workload mpc_avoid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, then a summary

Workloads (one client, closed loop, one process, BLAS threads = 1):

- mpc_avoid: phi_avoid episode pairs (robustness then rotogo mode, same
  seed) through mpc_run; the STL-heavy episode.
- mpc_stayin: phi_stayin episode pairs; one-predicate formula, rollout-heavy.
- monitor_traces: offline monitoring of seeded random-walk trace CSVs (201
  and 2001 samples) against the two scenario formulas and a nested until.
- selftest_corpus: run_selftest slices of tiny random formulas.

A run builds its inputs from --seed, times ``import rotogo`` plus the
program set-up in fresh interpreters, runs one untimed warm-up unit, then
runs units until --seconds of unit time have passed.  Every unit's outputs
are checked after its timer stops; a failed check or a raised exception
counts as a failed unit.  With --trace 1 every unit runs twice, with the
span wrappers off and on (alternating which goes first); the traced runs
give the per-layer metrics, the pairs give the tracing overhead, and the
two runs of a unit must give identical outcomes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-unit outcomes
and, for traced runs, every span go to perfbench/out/.
"""
from __future__ import annotations

import os

# One BLAS thread: the workloads are single-process closed loops and their
# matrices are tiny (8 x 8 eigh), so extra threads only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import metrics as metric_table  # noqa: E402
import speed  # noqa: E402

WORKLOAD_NAMES = ("mpc_avoid", "mpc_stayin", "monitor_traces", "selftest_corpus")

#: Fresh interpreters timed for setup_s, after one untimed one that lets
#: the interpreter write its bytecode caches.
SETUP_REPEATS = 7


def _import_rotogo():
    """Import rotogo from this checkout's src/, and only from there."""
    if not (SRC / "rotogo" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/rotogo not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import rotogo

    if Path(rotogo.__file__).resolve().parent != SRC / "rotogo":
        sys.exit(f"error: imported rotogo from {rotogo.__file__}, not from {SRC}")
    return rotogo


@dataclass
class Pass:
    """Units run in one timed pass."""

    walls: list = field(default_factory=list)  # wall seconds per unit
    work: int = 0
    outcomes: list = field(default_factory=list)
    failed: int = 0
    problems: list = field(default_factory=list)
    #: Wall seconds of named parts of a unit (MPC episodes by mode).
    parts: dict = field(default_factory=dict)
    #: Mean calibration-kernel time over its nominal time (see speed.py);
    #: reported times are wall times divided by it.
    slowness: float = 1.0

    @property
    def seconds(self) -> float:
        return sum(self.walls)

    @property
    def scaled_seconds(self) -> float:
        return self.seconds / self.slowness

    def run_unit(self, wl, i: int) -> None:
        """Run and time unit ``i``, then check its outputs untimed."""
        start = time.perf_counter()
        try:
            result = wl.run(i)
        except Exception as exc:  # a raised exception is a failed unit
            self.walls.append(time.perf_counter() - start)
            self.failed += 1
            self.problems.append(f"unit {i}: {type(exc).__name__}: {exc}")
            self.outcomes.append({"unit": i, "error": f"{type(exc).__name__}: {exc}"})
            return
        self.walls.append(time.perf_counter() - start)
        problems = wl.check(result)
        if problems:
            self.failed += 1
            self.problems += [f"unit {i}: {msg}" for msg in problems]
        self.work += wl.work(result)
        self.outcomes.append({"unit": i, **wl.outcome(result)})
        for name, seconds in wl.parts(result).items():
            self.parts.setdefault(name, []).append(seconds)


def _more(passes, wl, i: int, seconds: float, loop_start: float) -> bool:
    """Keep going until ``seconds`` of unit time and whole blocks have run;
    a run of units that fail at once stops after 3 x ``seconds``."""
    return (sum(p.seconds for p in passes) < seconds or i % wl.block) and (
        time.perf_counter() - loop_start < 3 * seconds
    )


def run_pass(wl, seconds: float) -> Pass:
    """Run units 0, 1, ... untraced for ``seconds`` of unit time."""
    p = Pass()
    calibration = speed.Calibration()
    loop_start = time.perf_counter()
    i = 0
    while _more([p], wl, i, seconds, loop_start):
        p.run_unit(wl, i)
        calibration.after_unit(p.walls[-1])
        i += 1
    p.slowness = calibration.finish()
    return p


def run_paired(wl, tracer, seconds: float) -> tuple[Pass, Pass]:
    """Run every unit twice, with tracing off and on, alternating which
    goes first, so that drift in machine speed hits both passes alike."""
    untraced, traced = Pass(), Pass()
    calibration = speed.Calibration()
    loop_start = time.perf_counter()
    i = 0
    while _more([untraced, traced], wl, i, seconds, loop_start):
        tracer.current_unit = i
        for enabled in (i % 2 == 1, i % 2 == 0):
            tracer.enabled = enabled
            p = traced if enabled else untraced
            p.run_unit(wl, i)
            calibration.after_unit(p.walls[-1])
        i += 1
    tracer.enabled = False
    untraced.slowness = traced.slowness = calibration.finish()
    return untraced, traced


def measure_setup(workload: str) -> list[float]:
    """Set-up seconds in SETUP_REPEATS fresh interpreters."""
    cmd = [sys.executable, str(HERE / "program_setup.py"), workload]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def end_to_end(wl, p: Pass, setup: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_items_per_s": p.work / p.scaled_seconds,
        "unit_s.p50": statistics.median(block_means(p.walls, wl.block)) / p.slowness,
    }


def block_means(walls: list, block: int) -> list:
    """Mean unit wall of each whole block of ``block`` consecutive units."""
    return [statistics.fmean(walls[j : j + block]) for j in range(0, len(walls) - block + 1, block)]


def per_layer(wl, untraced: Pass, traced: Pass, tracer) -> dict[str, float]:
    units = max(len(traced.walls), 1)
    totals = tracer.totals()
    # Span times are scaled like the unit walls (see speed.py).
    k = 1.0 / traced.slowness
    wall = traced.scaled_seconds

    def calls(*names):
        return sum(totals.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return k * sum(totals.get(n, {}).get("self_s", 0.0) for n in names)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    counts = tracer.counts
    cmaes_total = k * totals.get("cmaes.minimize", {}).get("total_s", 0.0)
    replans = k * tracer.durations("cmaes.minimize")
    episodes = [e for o in untraced.outcomes for e in o.get("episodes", [])]

    def touched(mode):
        vals = [t for e in episodes if e["mode"] == mode for t in e["samples_touched"]]
        return statistics.fmean(vals) if vals else 0.0

    def success(mode):
        vals = [e["success"] for e in episodes if e["mode"] == mode]
        return statistics.fmean(vals) if vals else 0.0

    nodes = tracer.samples.get("progression.formula_nodes", [])
    read_bytes = sum(wl.read_bytes(i) for i in range(len(traced.walls))) if hasattr(wl, "read_bytes") else 0
    testgen = [n for n in totals if n.startswith("testgen.")]

    m = {
        "fasteval.eval.calls": calls("fasteval.eval") / units,
        "fasteval.eval.self_s": self_s("fasteval.eval") / units,
        "fasteval.eval.cells": counts.get("fasteval.cells", 0) / units,
        "fasteval.eval.ns_per_cell": ratio(self_s("fasteval.eval"), counts.get("fasteval.cells", 0), 1e9),
        "fasteval.samples_touched.robustness.mean": touched("robustness"),
        "fasteval.samples_touched.rotogo.mean": touched("rotogo"),
        "planning.rollout.calls": calls("planning.rollout") / units,
        "planning.rollout.self_s": self_s("planning.rollout") / units,
        "planning.rollout.ns_per_sample": ratio(
            self_s("planning.rollout"), counts.get("planning.rollout.samples", 0), 1e9
        ),
        "planning.penalty.self_s": self_s("planning.penalty") / units,
        "planning.spline.self_s": self_s("planning.spline") / units,
        "mpc.objective.self_s": self_s("mpc.objective") / units,
        "mpc.loop.self_s": self_s("mpc.run") / units,
        "mpc.replan_s.p50": percentile(replans, 50),
        "mpc.replan_s.p90": percentile(replans, 90),
        "mpc.episode_s.robustness.p50": k * percentile(untraced.parts.get("robustness", []), 50),
        "mpc.episode_s.rotogo.p50": k * percentile(untraced.parts.get("rotogo", []), 50),
        "mpc.success.robustness": success("robustness"),
        "mpc.success.rotogo": success("rotogo"),
        "cmaes.update.self_s": self_s("cmaes.minimize") / units,
        "cmaes.generations": counts.get("cmaes.generations", 0) / units,
        "cmaes.evaluations": counts.get("cmaes.evaluations", 0) / units,
        "cmaes.evals_per_s": ratio(counts.get("cmaes.evaluations", 0), cmaes_total),
        "progression.monitor_step.calls": calls("progression.monitor_step") / units,
        "progression.monitor_step.self_s": self_s("progression.monitor_step") / units,
        "progression.monitor_step.us_per_step": ratio(
            self_s("progression.monitor_step"), calls("progression.monitor_step"), 1e6
        ),
        "progression.progress.calls": calls("progression.progress") / units,
        "progression.progress.self_s": self_s("progression.progress") / units,
        "progression.simplify.self_s": self_s("progression.simplify") / units,
        "progression.formula_nodes.mean": statistics.fmean(nodes) if nodes else 0.0,
        "progression.formula_nodes.max": max(nodes, default=0),
        "semantics.sat.self_s": self_s("semantics.sat") / units,
        "semantics.robustness.self_s": self_s("semantics.robustness") / units,
        "semantics.rotogo.self_s": self_s("semantics.rotogo") / units,
        "semantics.witness.self_s": self_s("semantics.witness") / units,
        "parser.parse_formula.self_s": self_s("parser.parse_formula") / units,
        "signals.read_trace_csv.self_s": self_s("signals.read_trace_csv") / units,
        "signals.read_mb_per_s": ratio(read_bytes, self_s("signals.read_trace_csv"), 1e-6),
        "testgen.self_s": self_s(*testgen) / units,
        "selftest.self_s": self_s("selftest.run_selftest") / units,
    }
    accounted = 0.0
    for layer in metric_table.LAYERS:
        layer_self = self_s(*[n for n in totals if n.split(".", 1)[0] == layer])
        accounted += layer_self
        m[f"share.{layer}"] = ratio(layer_self, wall)
    m["trace.remainder.share"] = ratio(wall - accounted, wall)
    m["trace.unit_s.mean"] = wall / units
    m["trace.spans_per_unit"] = len(tracer.start) / units
    m["trace.overhead"] = ratio(traced.seconds, untraced.seconds) - 1.0
    return m


def run_workload(args) -> int:
    rotogo = _import_rotogo()
    import workloads
    from tracer import Tracer

    metric_names = _declared_metrics()
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.workload, args.seed, workdir)
        wl.prepare()
        setup = measure_setup(args.workload)
        wl.run(-1)  # untimed warm-up unit, not part of the measured sequence

        tracer = None
        if args.trace:
            tracer = Tracer()
            wl.install(tracer)
            untraced, traced = run_paired(wl, tracer, args.seconds)
            for a, b in zip(untraced.outcomes, traced.outcomes):
                if a != b:
                    traced.failed += 1
                    traced.problems.append(f"unit {a['unit']}: traced outcome differs from untraced one")
            passes = [untraced, traced]
            values = per_layer(wl, untraced, traced, tracer)
            expected = metric_names["per_layer"]
        else:
            p = run_pass(wl, args.seconds)
            passes = [p]
            values = end_to_end(wl, p, setup)
            expected = metric_names["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.walls) for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{stem}.outcomes.jsonl", "w", encoding="utf-8") as fh:
        for o in passes[0].outcomes:
            fh.write(json.dumps(o, sort_keys=True) + "\n")
    with open(OUT / f"{stem}.walls.json", "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup, "slowness": passes[0].slowness, "walls": [p.walls for p in passes]}, fh)
    if tracer is not None:
        tracer.save(OUT / f"{args.workload}-spans.npz")

    if set(values) != set(expected):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(expected))} disagree with BENCHMARK.json")
    _print_report(args, wl, passes[0], values, setup, attempted, failed, problems, rotogo)
    units = {name: unit for name, unit, *_ in metric_table.END_TO_END + metric_table.PER_LAYER}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in expected},
    }))
    return 0 if failed == 0 else 1


def _declared_metrics() -> dict[str, list[str]]:
    """Metric names from BENCHMARK.json, which must match metrics.py."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, table in (("end_to_end", metric_table.END_TO_END), ("per_layer", metric_table.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if declared != [row[:3] for row in table]:
            sys.exit(f"error: BENCHMARK.json {key} disagrees with perfbench/metrics.py")
    return {key: [m["name"] for m in spec[key]] for key in ("end_to_end", "per_layer")}


def _print_report(args, wl, p: Pass, values, setup, attempted, failed, problems, rotogo) -> None:
    """Human-readable lines, including the per-workload metric names."""
    print(f"# rotogo benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"# python {platform.python_version()}, numpy {np.__version__}, nproc {os.cpu_count()}, "
          f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}, rotogo {rotogo.__version__}")
    for msg in problems[:20]:
        print(f"FAILED {msg}")
    rate = {"episode": "episodes_per_s", "trace": "traces_per_s", "check": "checks_per_s"}[wl.item]
    rows = [("error_rate", failed / attempted if attempted else 0.0, f"({failed}/{attempted})")]
    if not args.trace:
        n = len(p.walls)
        s = p.slowness
        rows.append(("slowness", s, "(calibration kernel time / nominal; times below are wall / slowness)"))
        rows.append((rate, p.work / p.scaled_seconds, f"1/s (wall clock {p.work / p.seconds:.6g})"))
        if wl.item == "episode":
            eps = [w / s for walls in p.parts.values() for w in walls]
            rows.append(("episode_s.p50", statistics.median(eps), f"s (n={len(eps)} episodes)"))
        if wl.item == "trace":
            rows.append(("trace_s.p50", statistics.median(p.walls) / s, f"s (n={n} traces)"))
            if n >= 100:  # at least ten traces beyond the p90
                rows.append(("trace_s.p90", percentile(p.walls, 90) / s, f"s (n={n} traces)"))
        rows.append(("units", n, f"(work items {p.work}, setup runs {len(setup)})"))
    units = {name: unit for name, unit, *_ in metric_table.END_TO_END + metric_table.PER_LAYER}
    for name, value in values.items():
        rows.append((name, value, units[name]))
    for name, value, unit in rows:
        print(f"  {name:44s} {value:14.6g} {unit}")


def run_all(args) -> int:
    """Every workload in its own process, then one summary line."""
    summary = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode not in (0, 1) or not lines:
            sys.stderr.write(done.stderr)
            return 2
        summary[name] = json.loads(lines[-1])
        status = max(status, done.returncode)
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "workloads": summary,
    }))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        epilog=metric_table.help_text(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0, help="unit time to measure per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
