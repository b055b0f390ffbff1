"""In-memory span recorder that times program layers from outside.

Spans are opened and closed by wrappers that the benchmark installs on the
names a caller module imported (``rotogo.mpc.rollout_arrays`` and so on), or
puts around the public functions it calls itself.  Nothing inside ``src/``
is changed.

Each span keeps its name, start, end, parent span and unit id in flat
arrays (about 30 bytes a span), so a traced run of several hundred thousand
spans stays small.  Spans are written to disk only after timing ends.
"""
from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self._stack: list[int] = []
        self.current_unit = -1
        #: Wrappers record spans only while this is true.
        self.enabled = True
        #: Work counters recorded at the span boundaries, summed by key.
        self.counts: dict[str, float] = {}
        #: Values recorded once per call (key -> list).
        self.samples: dict[str, list] = {}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _opener(self, name: str):
        """open() -> span index, close(index); bound once per wrapped name so
        that a call pays only for the appends and two clock reads."""
        nid = self._name_id(name)
        name_id, start, end, parent, unit, stack = (
            self.name_id, self.start, self.end, self.parent, self.unit, self._stack
        )
        clock = time.perf_counter

        def open_span() -> int:
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            unit.append(self.current_unit)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            return idx

        def close_span(idx: int) -> None:
            end[idx] = clock()
            stack.pop()

        return open_span, close_span

    def wrap(self, name: str, fn, on_return=None, wrap_kwargs=None):
        """A stand-in for ``fn`` that records one ``name`` span per call.

        ``on_return(result, args, kwargs)`` runs after the span has closed
        and may record counters.  ``wrap_kwargs`` maps a keyword argument
        name to a span name; a callable passed under that keyword is wrapped
        too, so callbacks a layer receives are timed as its children.
        """
        open_span, close_span = self._opener(name)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if wrap_kwargs:
                for key, child_name in wrap_kwargs.items():
                    if kwargs.get(key) is not None:
                        kwargs[key] = self.wrap(child_name, kwargs[key])
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def sample(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int32)
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "unit": np.array(self.unit, dtype=np.int32),
            "duration": duration,
            "self": duration - child,
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and total self time."""
        a = self.arrays()
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(a["duration"][mask].sum()),
                "self_s": float(a["self"][mask].sum()),
            }
        return out

    def durations(self, name: str) -> np.ndarray:
        a = self.arrays()
        if name not in self._name_ids:
            return np.empty(0)
        return a["duration"][a["name_id"] == self._name_ids[name]]

    def save(self, path) -> None:
        """Write every span (name, start, end, parent, unit) as one .npz file."""
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=a["name_id"],
            start=a["start"],
            end=a["end"],
            parent=a["parent"],
            unit=a["unit"],
        )
