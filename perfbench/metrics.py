"""Every metric the benchmark reports: unit, direction and what it should move.

``END_TO_END`` is what ``--trace 0`` prints, ``PER_LAYER`` what ``--trace 1``
prints; ``BENCHMARK.json`` at the repository root lists the same names.  The
last field of a per-layer entry is the interaction map: the end-to-end
metric and workload a change in that layer should move, and where the
prediction is no change.  "Per unit" means per unit of work: one episode
pair on ``mpc_*``, one trace on ``monitor_traces`` and one corpus slice on
``selftest_corpus``.  Times other than ``setup_s`` are wall times divided by
the run's slowness, measured with a fixed calibration kernel (speed.py);
``trace.overhead`` and the shares are ratios of raw wall times.

Every workload reports the same end-to-end metrics.  The human-readable
lines of a run also print them under workload-specific names:

- ``episodes_per_s``, ``traces_per_s`` and ``checks_per_s`` are
  ``work_items_per_s`` on ``mpc_*``, ``monitor_traces`` and
  ``selftest_corpus``.
- ``episode_s.p50`` (``mpc_*``) is the median single episode, next to
  ``unit_s.p50``, the median episode pair.  ``trace_s.p50`` and
  ``trace_s.p90`` (``monitor_traces``) are taken over single traces, next
  to ``unit_s.p50``, the median over blocks of six traces.  The p90 is
  printed only when ten traces lie beyond it; an MPC run never holds
  enough episodes for that.
- ``error_rate`` is ``failed / attempted`` of the result line.  It is 0 on
  a correct program, so it cannot be a bounded metric.
"""

E2E = "work_items_per_s / unit_s.p50"

#: (name, unit, better, description)
END_TO_END = [
    ("setup_s", "s", "lower",
     "import rotogo plus the workload's one-time set-up (ScenarioConfig.validate / formula parsing), "
     "median of several fresh interpreters; wall seconds, not scaled"),
    ("peak_rss_mb", "MB", "lower", "peak resident set of the workload process (getrusage)"),
    ("work_items_per_s", "1/s", "higher",
     "episodes per second (mpc_*), traces per second (monitor_traces), property checks per second "
     "(selftest_corpus), at reference machine speed (speed.py)"),
    ("unit_s.p50", "s", "lower",
     "median over blocks of the mean seconds of a unit at reference machine speed; a block is one episode "
     "pair (mpc_*), six traces, one of each length and formula (monitor_traces), one corpus slice (selftest_corpus)"),
]

_MPC_NOT_OFFLINE = f"{E2E} on mpc_avoid most, then mpc_stayin; no change on monitor_traces and selftest_corpus"
_OFFLINE = f"{E2E} on monitor_traces and selftest_corpus; no change on mpc_*"

#: (name, unit, better, description and interaction)
PER_LAYER = [
    ("fasteval.eval.calls", "count", "lower", f"fasteval calls per unit; {_MPC_NOT_OFFLINE}"),
    ("fasteval.eval.self_s", "s", "lower",
     f"fasteval self seconds per unit; {E2E} on mpc_avoid most, less on mpc_stayin; no change on monitor_traces"),
    ("fasteval.eval.cells", "count", "lower", "sum of B x n evaluated per unit; as fasteval.eval.self_s"),
    ("fasteval.eval.ns_per_cell", "ns", "lower", "fasteval self time per cell; as fasteval.eval.self_s"),
    ("fasteval.samples_touched.robustness.mean", "count", "lower",
     "ReplanRecord.samples_touched, mean over robustness-mode replans; exact count, 0 off mpc_*"),
    ("fasteval.samples_touched.rotogo.mean", "count", "lower",
     "ReplanRecord.samples_touched, mean over rotogo-mode replans; exact count, 0 off mpc_*"),
    ("planning.rollout.calls", "count", "lower", f"rollout_arrays calls per unit; {_MPC_NOT_OFFLINE}"),
    ("planning.rollout.self_s", "s", "lower",
     f"rollout_arrays self seconds per unit; {E2E} on mpc_stayin most, then mpc_avoid; "
     "no change on monitor_traces and selftest_corpus"),
    ("planning.rollout.ns_per_sample", "ns", "lower", "rollout self time per sample of B x L; as planning.rollout.self_s"),
    ("planning.penalty.self_s", "s", "lower",
     "workspace_penalty + limit_penalty self seconds per unit; as planning.rollout.self_s"),
    ("planning.spline.self_s", "s", "lower",
     "spline_positions (warm-start resampling) self seconds per unit; as planning.rollout.self_s"),
    ("mpc.objective.self_s", "s", "lower",
     f"objective callback minus rollout, penalty and eval (prefix concatenation, suffix components, clamp); "
     f"{E2E} on mpc_*, robustness-mode episodes most"),
    ("mpc.loop.self_s", "s", "lower", f"mpc_run minus every span inside it, per unit; {E2E} on mpc_*"),
    ("mpc.replan_s.p50", "s", "lower", f"one cmaes_minimize span per replan, median; {E2E} on mpc_*"),
    ("mpc.replan_s.p90", "s", "lower", f"one cmaes_minimize span per replan, p90; {E2E} on mpc_*"),
    ("mpc.episode_s.robustness.p50", "s", "lower",
     f"robustness-mode episode wall seconds, median (untraced); {E2E} on mpc_*"),
    ("mpc.episode_s.rotogo.p50", "s", "lower", f"rotogo-mode episode wall seconds, median (untraced); {E2E} on mpc_*"),
    ("mpc.success.robustness", "ratio", "higher", "share of robustness-mode episodes with final robustness > 0; reported, not gated"),
    ("mpc.success.rotogo", "ratio", "higher", "share of rotogo-mode episodes with final robustness > 0; reported, not gated"),
    ("cmaes.update.self_s", "s", "lower",
     f"cmaes_minimize minus its objective spans, per unit; {E2E} on mpc_avoid and mpc_stayin equally"),
    ("cmaes.generations", "count", "lower", "CMA-ES generations per unit; exact count"),
    ("cmaes.evaluations", "count", "lower", "objective evaluations per unit; exact count"),
    ("cmaes.evals_per_s", "1/s", "higher",
     f"objective evaluations per second of cmaes_minimize time; {E2E} on mpc_avoid and mpc_stayin equally"),
    ("progression.monitor_step.calls", "count", "lower", f"monitor_step calls per unit; {_OFFLINE}"),
    ("progression.monitor_step.self_s", "s", "lower",
     f"monitor_step self seconds per unit; {E2E} on monitor_traces; no change on mpc_* (<= 1% of an episode)"),
    ("progression.monitor_step.us_per_step", "us", "lower", "monitor_step self time per call; as progression.monitor_step.self_s"),
    ("progression.progress.calls", "count", "lower", f"progress calls per unit (selftest); {_OFFLINE}"),
    ("progression.progress.self_s", "s", "lower",
     f"progress self seconds per unit (selftest); {E2E} on selftest_corpus; no change on mpc_*"),
    ("progression.simplify.self_s", "s", "lower",
     f"simplify self seconds per unit (selftest); {E2E} on selftest_corpus; no change on mpc_*"),
    ("progression.formula_nodes.mean", "count", "lower", f"node count of each monitor_step result, mean; {_OFFLINE}"),
    ("progression.formula_nodes.max", "count", "lower", f"node count of each monitor_step result, max; {_OFFLINE}"),
    ("semantics.sat.self_s", "s", "lower", f"reference sat self seconds per unit; {_OFFLINE}; zero on mpc_*"),
    ("semantics.robustness.self_s", "s", "lower", f"reference robustness self seconds per unit; {_OFFLINE}; zero on mpc_*"),
    ("semantics.rotogo.self_s", "s", "lower", f"reference rotogo self seconds per unit; {_OFFLINE}; zero on mpc_*"),
    ("semantics.witness.self_s", "s", "lower",
     f"robustness_witness self seconds per unit; {E2E} on selftest_corpus; zero elsewhere"),
    ("parser.parse_formula.self_s", "s", "lower",
     "parse_formula self seconds per unit; setup_s everywhere and unit_s.p50 on monitor_traces"),
    ("signals.read_trace_csv.self_s", "s", "lower",
     "read_trace_csv self seconds per unit; unit_s.p50 and trace_s.p90 on monitor_traces (long traces); zero elsewhere"),
    ("signals.read_mb_per_s", "MB/s", "higher", "trace CSV bytes read per second of read_trace_csv; as signals.read_trace_csv.self_s"),
    ("testgen.self_s", "s", "lower",
     f"random_instance + random_interval + shrink_instance self seconds per unit; {E2E} on selftest_corpus; zero elsewhere"),
    ("selftest.self_s", "s", "lower",
     f"run_selftest minus every span inside it, per unit; {E2E} on selftest_corpus; zero elsewhere"),
    *[
        (f"share.{layer}", "ratio", "lower", f"{layer} self time over traced wall time")
        for layer in ("mpc", "planning", "fasteval", "cmaes", "progression", "semantics",
                      "parser", "signals", "testgen", "selftest")
    ],
    ("trace.remainder.share", "ratio", "lower",
     "traced wall time no span accounts for (benchmark glue around the calls), over traced wall time"),
    ("trace.unit_s.mean", "s", "lower", "traced wall seconds per unit"),
    ("trace.spans_per_unit", "count", "lower", "spans recorded per unit"),
    ("trace.overhead", "ratio", "lower",
     "traced wall time over untraced wall time of the same units, each run both ways back to back, minus 1"),
]

LAYERS = [name.split(".", 1)[1] for name, *_ in PER_LAYER if name.startswith("share.")]


def help_text() -> str:
    lines = [__doc__.strip(), "", "end-to-end metrics (--trace 0):"]
    lines += [f"  {name} [{unit}, {better} is better]: {desc}" for name, unit, better, desc in END_TO_END]
    lines.append("")
    lines.append("per-layer metrics (--trace 1), with what each should move:")
    lines += [f"  {name} [{unit}, {better} is better]: {desc}" for name, unit, better, desc in PER_LAYER]
    return "\n".join(lines)
