"""The program's one-time set-up for each workload, and its timing child.

``setup(workload)`` is what a user of rotogo does once before the work
starts: validate the scenario configuration (which parses its formula) for
the MPC workloads, parse the formula mix for offline monitoring, and nothing
beyond ``import rotogo`` for the property corpus.

Run as a script, it times ``import rotogo`` plus ``setup(workload)`` in a
fresh interpreter and prints the seconds; the benchmark reports the median
of several such children as ``setup_s``.  It imports nothing but the
standard library before its clock starts.

    python3 perfbench/program_setup.py <workload>
"""
import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

#: The monitoring workload's nested-until formula, next to the two scenario
#: formulas: an implication under G with an inner F, and an until whose left
#: operand is not true, which takes fasteval's general until path.
NESTED_FORMULA = "G[0,10] ((x > 1) -> F[0,2] (y < 3)) & ((x > 0) U[0,5] (y > 2.6))"


def formula_mix(rotogo):
    """(key, text, aliases) for every formula the monitoring workload uses."""
    avoid = rotogo.scenario_phi_avoid()
    stayin = rotogo.scenario_phi_stayin()
    return [
        ("phi_avoid", avoid.formula, avoid.aliases),
        ("phi_stayin", stayin.formula, stayin.aliases),
        ("nested_until", NESTED_FORMULA, {}),
    ]


def setup(workload: str, rotogo):
    """Run the workload's one-time program set-up; returns what it built."""
    if workload == "mpc_avoid":
        cfg = rotogo.scenario_phi_avoid()
        return cfg, cfg.validate()
    if workload == "mpc_stayin":
        cfg = rotogo.scenario_phi_stayin()
        return cfg, cfg.validate()
    if workload == "monitor_traces":
        return {key: rotogo.parse_formula(text, aliases=aliases) for key, text, aliases in formula_mix(rotogo)}
    if workload == "selftest_corpus":
        return None
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    import rotogo

    setup(sys.argv[1], rotogo)
    print(repr(time.perf_counter() - _T0))
