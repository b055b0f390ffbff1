"""The four benchmark workloads: seeded inputs, one unit of work, its checks.

Every workload is closed loop with one client: the next unit starts when
the previous call has returned.  A workload object

- builds all its inputs from the workload seed in ``prepare`` (untimed);
- runs unit ``i`` in ``run(i)``, the only part the benchmark times;
- reports how much work a unit did in ``work`` and the wall seconds of its
  named parts (MPC episodes by mode) in ``parts``;
- checks that unit's outputs in ``check`` (untimed), returning a list of
  problems, empty when the outputs are correct;
- reduces a unit to the deterministic values in ``outcome``, which two runs
  of the same code and seed must reproduce exactly;
- installs timing wrappers in ``install(tracer)`` for the traced run.

Layer spans come from wrappers on the names a caller module imported
(``rotogo.mpc.*``, ``rotogo.selftest.*``) or, for offline monitoring, from
wrapping the public functions the benchmark calls itself.
"""
from __future__ import annotations

import math
import time

import numpy as np

import program_setup

import rotogo
import rotogo.mpc
import rotogo.scenarios
import rotogo.selftest
from rotogo.formula import node_count
from rotogo.semantics import robustness

#: Property cases per property in one selftest unit (14 properties).
SELFTEST_CASES = 100

#: Offline-monitoring trace pool: lengths x formulas, repeated.
TRACE_LENGTHS = (201, 2001)
TRACE_POOL_BLOCKS = 10
TRACE_PERIOD_S = 0.1
WORKSPACE = (0.0, 5.0)

#: The public functions the monitoring workload calls, and their span names.
MONITOR_API = {
    "parse_formula": "parser.parse_formula",
    "read_trace_csv": "signals.read_trace_csv",
    "sat": "semantics.sat",
    "robustness": "semantics.robustness",
    "rotogo": "semantics.rotogo",
    "start_monitor": "progression.start_monitor",
    "monitor_step": "progression.monitor_step",
    "eval_robustness_all": "fasteval.eval",
}


def derive_seed(*keys: int) -> int:
    """A 63-bit seed derived from the workload seed and further keys."""
    state = np.random.SeedSequence(list(keys)).generate_state(2, dtype=np.uint32)
    return int(state[0]) << 31 | int(state[1]) >> 1


def unit_seed(seed: int, i: int) -> int:
    """Seed of unit ``i``; the untimed warm-up unit is ``i = -1``."""
    return derive_seed(seed, 0, i + 1)


def _count_cells(tracer):
    """on_return hook: add the B x n size of a robustness table."""
    return lambda result, args, kwargs: tracer.count("fasteval.cells", int(np.size(result)))


def _count_nodes(tracer):
    """on_return hook: record the node count of a monitor_step result's
    formula (counted at once, so that no formula is kept alive)."""
    return lambda result, args, kwargs: tracer.sample("progression.formula_nodes", node_count(result.current))


class MpcWorkload:
    """Paired ``mpc_run`` episodes, robustness then rotogo mode, same seed."""

    item = "episode"
    block = 1

    def __init__(self, name: str, seed: int, workdir):
        self.seed = seed
        self.cfg, self.f0 = program_setup.setup(name, rotogo)
        self.run_episode = rotogo.mpc.mpc_run

    def prepare(self) -> None:
        pass  # episode seeds are derived on demand

    def run(self, i: int):
        """Both episodes of the pair, with the wall seconds of each."""
        seed = unit_seed(self.seed, i)
        results, walls = [], {}
        for mode in rotogo.scenarios.MODES:
            cfg = self.cfg.with_mode(mode).with_seed(seed)
            start = time.perf_counter()
            results.append(self.run_episode(cfg))
            walls[mode] = time.perf_counter() - start
        return results, walls

    def work(self, unit) -> int:
        return len(unit[0])

    def parts(self, unit) -> dict[str, float]:
        return unit[1]

    def check(self, unit) -> list[str]:
        results, _ = unit
        problems = []
        for r in results:
            tag = f"{r.mode} seed {r.seed}"
            n = len(r.trace)
            want = robustness(r.trace, r.trace.t0, self.f0)
            if r.final_robustness != want:
                problems.append(f"{tag}: final_robustness {r.final_robustness!r} != reference {want!r}")
            if r.success != (r.final_robustness > 0):
                problems.append(f"{tag}: success {r.success} disagrees with robustness {r.final_robustness!r}")
            touched = [rec.samples_touched for rec in r.replans]
            if r.mode == "rotogo":
                # Once progression decides the formula (true or false), the
                # objective is a constant +-inf that reads no samples, and it
                # stays decided; until then each replan reads fewer samples.
                live = [t for t in touched if t > 0]
                if touched[: len(live)] != live:
                    problems.append(f"{tag}: samples_touched returns from 0: {touched}")
                if any(b >= a for a, b in zip(live, live[1:])):
                    problems.append(f"{tag}: samples_touched not strictly decreasing: {touched}")
                if any(rec.samples_touched > n - rec.index - 1 for rec in r.replans):
                    problems.append(f"{tag}: samples_touched exceeds the remaining samples")
                if any(math.isfinite(rec.objective_robustness) for rec in r.replans if rec.samples_touched == 0):
                    problems.append(f"{tag}: a replan read no samples but scored a finite robustness")
            elif any(t != n for t in touched):
                problems.append(f"{tag}: samples_touched {set(touched)} != trace length {n}")
        return problems

    def outcome(self, unit) -> dict:
        results, _ = unit
        return {
            "episodes": [
                {
                    "mode": r.mode,
                    "seed": r.seed,
                    "final_robustness": repr(r.final_robustness),
                    "success": r.success,
                    "replans": len(r.replans),
                    "samples_touched": [rec.samples_touched for rec in r.replans],
                }
                for r in results
            ]
        }

    def install(self, tracer) -> None:
        mpc = rotogo.mpc
        cells = _count_cells(tracer)

        def rollout_samples(result, args, kwargs):
            pos = result[1]
            tracer.count("planning.rollout.samples", pos.size // 2)

        def cmaes_counts(result, args, kwargs):
            tracer.count("cmaes.generations", len(result.history))
            tracer.count("cmaes.evaluations", result.evaluations)

        mpc.rollout_arrays = tracer.wrap("planning.rollout", mpc.rollout_arrays, rollout_samples)
        mpc.spline_positions = tracer.wrap("planning.spline", mpc.spline_positions)
        mpc.workspace_penalty = tracer.wrap("planning.penalty", mpc.workspace_penalty)
        mpc.limit_penalty = tracer.wrap("planning.penalty", mpc.limit_penalty)
        mpc.eval_robustness_arrays = tracer.wrap("fasteval.eval", mpc.eval_robustness_arrays, cells)
        mpc.eval_robustness_all = tracer.wrap("fasteval.eval", mpc.eval_robustness_all, cells)
        mpc.cmaes_minimize = tracer.wrap(
            "cmaes.minimize", mpc.cmaes_minimize, cmaes_counts, wrap_kwargs={"batch_objective": "mpc.objective"}
        )
        mpc.monitor_step = tracer.wrap("progression.monitor_step", mpc.monitor_step, _count_nodes(tracer))
        rotogo.scenarios.parse_formula = tracer.wrap("parser.parse_formula", rotogo.scenarios.parse_formula)
        self.run_episode = tracer.wrap("mpc.run", self.run_episode)


class MonitorWorkload:
    """Offline monitoring of recorded trace CSVs: the work of ``rotogo
    monitor --rotogo-from`` plus ``rotogo progress`` on each trace."""

    item = "trace"

    def __init__(self, name: str, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.mix = program_setup.formula_mix(rotogo)
        #: One trace of every (length, formula) pair; unit_s.p50 is the
        #: median over blocks of the mean trace time, since single traces of
        #: the six kinds take from 20 to 110 ms.
        self.block = len(TRACE_LENGTHS) * len(self.mix)
        self.pool: list[dict] = []
        self.api = {name: getattr(rotogo, name) for name in MONITOR_API}

    def prepare(self) -> None:
        """Write the seeded trace pool: every (length, formula) pair once per
        block, in a seeded order within each block, so that the mix stays
        the same from seed to seed while the traces and cuts change."""
        rng = np.random.default_rng(derive_seed(self.seed, 1))
        combos = [(n, k) for n in TRACE_LENGTHS for k in range(len(self.mix))]
        self.workdir.mkdir(parents=True, exist_ok=True)
        for _ in range(TRACE_POOL_BLOCKS):
            for c in rng.permutation(len(combos)):
                n, k = combos[c]
                path = self.workdir / f"trace{len(self.pool):03d}_{n}.csv"
                path.write_text(_trace_csv(random_walk(rng, n)), encoding="utf-8")
                self.pool.append({
                    "path": path,
                    "formula": k,
                    "cut": int(rng.integers(1, 150)),
                })

    def run(self, i: int):
        api = self.api
        item = self.pool[i % len(self.pool)]
        key, text, aliases = self.mix[item["formula"]]
        f = api["parse_formula"](text, aliases=aliases)
        tr = api["read_trace_csv"](item["path"])
        t0 = tr.t0
        cut = item["cut"]
        verdict = api["sat"](tr, t0, f)
        rho = api["robustness"](tr, t0, f)
        rtg = api["rotogo"](tr, t0, tr.t(cut), f)
        step = api["monitor_step"]
        m = api["start_monitor"](f, t0)
        at_cut = None
        for k in range(len(tr) - 1):
            m = step(m, tr.t(k + 1), tr.state(k))
            if k == cut:
                at_cut = m
        table = api["eval_robustness_all"](tr, f)
        return {
            "trace": item["path"].name, "formula": key, "cut": cut, "signal": tr,
            "sat": verdict, "robustness": rho, "rotogo": rtg,
            "at_cut": at_cut, "verdict": m.verdict, "table0": float(table[0]),
        }

    def work(self, result) -> int:
        return 1

    def parts(self, result) -> dict[str, float]:
        return {}

    def check(self, r) -> list[str]:
        problems = []
        tag = f"{r['trace']} {r['formula']}"
        if r["table0"] != r["robustness"]:
            problems.append(f"{tag}: eval_robustness_all[0] {r['table0']!r} != robustness {r['robustness']!r}")
        tr, cut = r["signal"], r["cut"]
        progressed = robustness(tr, tr.t(cut + 1), r["at_cut"].current)
        if progressed != r["rotogo"]:
            problems.append(f"{tag}: progressed robustness {progressed!r} != rotogo {r['rotogo']!r} at cut {cut}")
        if r["verdict"] != "undecided" and (r["verdict"] == "satisfied") != r["sat"]:
            problems.append(f"{tag}: monitor verdict {r['verdict']} disagrees with sat {r['sat']}")
        return problems

    def outcome(self, r) -> dict:
        return {
            "trace": r["trace"], "formula": r["formula"], "cut": r["cut"], "sat": r["sat"],
            "robustness": repr(r["robustness"]), "rotogo": repr(r["rotogo"]), "verdict": r["verdict"],
        }

    def read_bytes(self, i: int) -> int:
        return self.pool[i % len(self.pool)]["path"].stat().st_size

    def install(self, tracer) -> None:
        hooks = {"eval_robustness_all": _count_cells(tracer), "monitor_step": _count_nodes(tracer)}
        self.api = {name: tracer.wrap(MONITOR_API[name], fn, hooks.get(name)) for name, fn in self.api.items()}


class SelftestWorkload:
    """Slices of the randomized property corpus, ``run_selftest`` with a
    seed derived from the workload seed per unit."""

    item = "check"
    block = 1

    def __init__(self, name: str, seed: int, workdir):
        self.seed = seed
        self.run_selftest = rotogo.selftest.run_selftest

    def prepare(self) -> None:
        pass

    def run(self, i: int):
        return self.run_selftest(cases=SELFTEST_CASES, seed=unit_seed(self.seed, i))

    def work(self, result) -> int:
        return sum(r.cases for r in result.reports)

    def parts(self, result) -> dict[str, float]:
        return {}

    def check(self, result) -> list[str]:
        return [f"property {r.name}: {r.failures} of {r.cases} cases failed" for r in result.reports if not r.passed]

    def outcome(self, result) -> dict:
        return {"reports": [[r.name, r.cases, r.failures] for r in result.reports]}

    def install(self, tracer) -> None:
        st = rotogo.selftest
        layers = {
            "progress": "progression.progress",
            "simplify": "progression.simplify",
            "robustness": "semantics.robustness",
            "rotogo": "semantics.rotogo",
            "sat": "semantics.sat",
            "robustness_witness": "semantics.witness",
            "eval_robustness_all": "fasteval.eval",
            "random_instance": "testgen.random_instance",
            "random_interval": "testgen.random_interval",
            "shrink_instance": "testgen.shrink_instance",
        }
        for attr, span in layers.items():
            hook = _count_cells(tracer) if attr == "eval_robustness_all" else None
            setattr(st, attr, tracer.wrap(span, getattr(st, attr), hook))
        self.run_selftest = tracer.wrap("selftest.run_selftest", self.run_selftest)


WORKLOADS = {
    "mpc_avoid": MpcWorkload,
    "mpc_stayin": MpcWorkload,
    "monitor_traces": MonitorWorkload,
    "selftest_corpus": SelftestWorkload,
}


# ---------------------------------------------------------------------------
# Trace inputs


def random_walk(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """A robot and a drifting environment point wandering inside the
    workspace, sampled every TRACE_PERIOD_S; positions reflect at the walls."""
    dt = TRACE_PERIOD_S
    vel = np.clip(np.cumsum(rng.normal(0.0, 0.3 * dt, (n, 2)), axis=0), -0.5, 0.5)
    pos = _reflect(rng.uniform(0.5, 4.5, 2) + np.cumsum(vel * dt, axis=0))
    env = _reflect(2.5 + np.cumsum(rng.normal(0.0, 0.03, (n, 2)), axis=0))
    return {
        "x": pos[:, 0], "y": pos[:, 1], "vx": vel[:, 0], "vy": vel[:, 1],
        "xe": env[:, 0], "ye": env[:, 1],
    }


def _reflect(p: np.ndarray) -> np.ndarray:
    lo, hi = WORKSPACE
    width = hi - lo
    q = np.mod(p - lo, 2 * width)
    return lo + np.where(q > width, 2 * width - q, q)


def _trace_csv(cols: dict[str, np.ndarray]) -> str:
    names = list(cols)
    n = cols[names[0]].size
    lines = ["t," + ",".join(names)]
    for i in range(n):
        lines.append(f"{i * TRACE_PERIOD_S:.6f}," + ",".join(repr(float(cols[c][i])) for c in names))
    return "\n".join(lines) + "\n"
