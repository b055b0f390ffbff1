"""One process-wide pool of spawned workers, one per usable core.

Episode batches (:func:`rotogo.bench.run_bench`) and the property corpus
(:func:`rotogo.selftest.run_selftest`) hand it independent, seeded work
items through :func:`outcomes`.  The pool starts on the first call that
needs it and later calls reuse it, so a process pays the workers' start
(a fresh interpreter each, importing numpy and the toolkit) once.  A pool
that breaks is shut down, and the next call starts another.  At
interpreter exit the pool's workers are joined, and multiprocessing's
resource tracker, which the pool starts, is stopped and reaped with them.

Workers start from a fresh import, so a name patched in the calling
process reaches only work run in it, and they keep the caller's
``sys.path`` from the pool's first use.  They also import the caller's
main script again, so a script that hands work to the pool guards its
entry point with ``if __name__ == "__main__":``.

Calls from several threads take turns on the pool.  This module imports
only ``os``, ``threading`` and ``functools`` when loaded;
``concurrent.futures`` and ``multiprocessing`` load with the first pool.
"""
from __future__ import annotations

import os
import threading
from functools import partial
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")

#: The running executor and its worker count, or None before the first pool.
_running = None
_workers = 0
#: Held while a call submits to and waits on the pool, or replaces it.
_lock = threading.Lock()


def usable_cores() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def outcomes(fn: Callable[..., T], items: Iterable, *, unit: str, caller: str) -> list[Callable[[], T]]:
    """One call per item, in item order, that returns ``fn(item)`` or
    raises its error.  With one usable core or one item they run in this
    process when called, else in the pool, done on return.

    ``fn`` and the items are pickled, so ``fn`` is a module-level function
    or a ``functools.partial`` of one.  Raises RuntimeError when a worker
    died, which is what a script that calls ``caller`` without an
    entry-point guard makes happen; ``unit`` names one item in the message.
    """
    items = list(items)
    workers = usable_cores()
    if workers == 1 or len(items) <= 1:
        return [partial(fn, item) for item in items]
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    with _lock:
        try:
            executor = _executor(workers)
            futures = [executor.submit(fn, item) for item in items]
            wait(futures)
            for future in futures:
                if isinstance(future.exception(), BrokenProcessPool):
                    raise future.exception()
        except BrokenProcessPool as exc:
            _shutdown()
            raise RuntimeError(
                f"the {unit} workers died; a script that calls {caller} must guard its entry point "
                'with `if __name__ == "__main__":`'
            ) from exc
    return [future.result for future in futures]


def _executor(workers: int):
    """The running pool, started or restarted to have ``workers`` workers."""
    global _running, _workers
    if _running is not None and _workers != workers:
        _shutdown()
    if _running is None:
        import atexit
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        _running = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
        _workers = workers
        atexit.unregister(_at_exit)  # registered once, however often the pool is replaced
        atexit.register(_at_exit)
    return _running


def _shutdown() -> None:
    """Join the running pool's workers and forget it."""
    global _running
    if _running is not None:
        _running.shutdown()
        _running = None


def _at_exit() -> None:
    """Join the workers, then stop and reap the resource tracker, which
    would otherwise outlive this process.  Only the process that started the
    tracker stops it (a worker uses its parent's), and not while another
    multiprocessing child lives, since that child holds it open."""
    import multiprocessing
    from multiprocessing import resource_tracker

    _shutdown()
    tracker = resource_tracker._resource_tracker
    if tracker._pid is not None and not multiprocessing.active_children():
        tracker._stop()
