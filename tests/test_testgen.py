"""The random corpus is pinned: every seed draws the same instances.

Every property suite, acceptance check and random-corpus test reads its
instances from `rotogo.testgen`, so a change to any draw there changes what
all of them check.  These digests were computed before the draws were moved
to cheaper numpy calls; each hashes the drawn formulas (their `repr`, which
spells every float constant exactly) and signals (tick times and component
bytes), then the generator's next `random()`, so a draw that consumes the
stream differently fails here even when its own values agree.
"""
import hashlib

import numpy as np
import pytest

from rotogo.testgen import random_formula, random_instance, random_interval, random_signal


def _signal_bytes(s) -> bytes:
    parts = [s.times.tobytes()]
    for name in sorted(s.components):
        parts += [name.encode(), s.components[name].tobytes()]
    return b"|".join(parts)


def _digest(seed: int, draws: int, draw) -> str:
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(draws):
        out = draw(rng)
        items = out if isinstance(out, tuple) else (out,)
        for item in items:
            h.update(_signal_bytes(item) if hasattr(item, "components") else repr(item).encode())
            h.update(b";")
    h.update(repr(rng.random()).encode())
    return h.hexdigest()


DRAW_SETS = {
    "instance_defaults": (lambda rng: random_instance(rng), 300),
    "instance_depth2_temporal1": (lambda rng: random_instance(rng, max_depth=2, max_temporal=1), 300),
    "instance_len5_40": (lambda rng: random_instance(rng, min_len=5, max_len=40), 200),
    "instance_len_max30": (lambda rng: random_instance(rng, max_len=30), 200),
    "formula_defaults": (lambda rng: random_formula(rng), 300),
    "signal_defaults": (lambda rng: random_signal(rng), 300),
    "interval_defaults": (lambda rng: random_interval(rng), 500),
}

#: name -> digests at seeds 0 and 74250917 (the selftest default seed).
PINNED = {
    "formula_defaults": (
        "2545be68dce24ebe251e388e3e47a5af4228b895d6e8428ed103771ba4e899ac",
        "853580fff50270447241765ac475d261331e884d9cdf0647146264c127bb1784",
    ),
    "instance_defaults": (
        "c6b9c8405ac31c489c4b5a44df4353d153b71eb73e9ee199557509789a01898c",
        "ed7e99a05a764e1c7edef3aaf2373e9210b78a9efb15046217b5e2c6e02089b0",
    ),
    "instance_depth2_temporal1": (
        "c943837ba651769d1034d8f8f9c2dd7acf99f2d23a2bec317086d0bf8dbc4d71",
        "1d6e1e9d9b22fb12bf31c3cad8ac9a019bf083f0bfeb83105c7e3879ea5bbc1c",
    ),
    "instance_len5_40": (
        "19463fa18ed83eaa7abf64b85f32bd05b897d43172dcd6bf1665e971222b0d5a",
        "58e60c3017d1fc49f9d3f6b98f1b4f5dce63e26fa861d3f1a0bfba941cb7c0c2",
    ),
    "instance_len_max30": (
        "d3e7a99eb3f4b72b1feb5d3ef7b75c6bb96c65f3d349fa6c5edbdd0381d19f82",
        "d387be2da83cc9402a9b0a57fc7b07b498d1670a41c6efe336aad3bbba8f2362",
    ),
    "interval_defaults": (
        "af843f80592ea22902de382e19e52e03b210ba364af3f8d0b381dedccaff4623",
        "b9ee06387512e8c7f50a74d32f7b19d99f066e38d34369d23f9926bb8c042bcf",
    ),
    "signal_defaults": (
        "d6d0c6530a3b0a5284ba12691fa70ec090e7baf47d76bb593f3788854702c054",
        "698acaf781e0e45533b4c2c94f8c02a7ea9bfc02ca8bd77c0dbc645149b3a43f",
    ),
}


@pytest.mark.parametrize("name", sorted(DRAW_SETS))
def test_corpus_stream_is_pinned(name):
    draw, draws = DRAW_SETS[name]
    for seed, want in zip((0, 74250917), PINNED[name]):
        assert _digest(seed, draws, draw) == want

