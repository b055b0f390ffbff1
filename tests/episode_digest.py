"""One SHA-256 per MPC episode, over every byte the episode produced.

The digest covers the trace (tick times and every component column), the
result's scalar fields and every field of every ``ReplanRecord``, floats by
their bits.  Two runs are byte-identical exactly when their digests match.

    PYTHONPATH=src python tests/episode_digest.py   # the seeds 1-5 table
"""
from __future__ import annotations

import dataclasses
import hashlib
import struct

import numpy as np


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, np.bool_)):
        h.update(b"T" if value else b"F")
    elif isinstance(value, (int, np.integer)):
        h.update(b"i%d;" % int(value))
    elif isinstance(value, (float, np.floating)):
        h.update(struct.pack("<d", float(value)))
    elif isinstance(value, str):
        h.update(value.encode() + b"\0")
    elif isinstance(value, (tuple, list)):
        h.update(b"[%d" % len(value))
        for item in value:
            _feed(h, item)
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def episode_digest(result) -> str:
    """Hex SHA-256 of one ``RunResult``."""
    h = hashlib.sha256()
    _feed(h, result.trace.times)
    for name, column in result.trace.components.items():
        _feed(h, name)
        _feed(h, column)
    for name in ("scenario", "mode", "seed", "final_robustness", "success", "min_distance"):
        _feed(h, getattr(result, name))
    _feed(h, len(result.replans))
    for record in result.replans:
        for f in dataclasses.fields(record):
            _feed(h, getattr(record, f.name))
    return h.hexdigest()


if __name__ == "__main__":
    from rotogo.bench import BenchSpec, run_bench
    from rotogo.scenarios import MODES, get_scenario

    for scenario in ("phi_avoid", "phi_stayin"):
        bench = run_bench(BenchSpec(get_scenario(scenario), MODES, episodes=5, base_seed=1))
        if any(bench.failures.values()):
            raise SystemExit(f"{scenario}: episodes failed: {bench.failures}")
        for mode in MODES:
            for _, result in bench.results[mode]:
                print(f"{scenario} {mode} {result.seed} {episode_digest(result)}")
