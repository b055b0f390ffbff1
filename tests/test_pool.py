"""The process-wide worker pool: outcomes in item order, one pool reused
across calls, a broken pool replaced, and no process left behind."""
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from rotogo import pool

SRC = str(Path(pool.__file__).resolve().parents[1])


def _worker_pid(item):
    """The worker's process id and the item; module-level, so that a worker
    can import it."""
    return os.getpid(), item


def test_outcomes_keep_item_order_and_reuse_one_pool(monkeypatch):
    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    pids = set()
    for _ in range(3):
        got = [get() for get in pool.outcomes(_worker_pid, range(6), unit="test", caller="this test")]
        assert [item for _, item in got] == list(range(6))
        pids |= {pid for pid, _ in got}
    # Three calls on one pool of two workers; a pool per call would show
    # at least three process ids.
    assert len(pids) <= 2 and os.getpid() not in pids


@pytest.mark.parametrize("cores, items", [(1, 3), (2, 1)])
def test_one_core_or_one_item_runs_in_this_process(monkeypatch, cores, items):
    monkeypatch.setattr(pool, "usable_cores", lambda: cores)
    calls = pool.outcomes(_worker_pid, range(items), unit="test", caller="this test")
    assert [get() for get in calls] == [(os.getpid(), i) for i in range(items)]


def test_threads_take_turns_on_the_pool(monkeypatch):
    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    results = {}

    def call(t):
        results[t] = [get() for get in pool.outcomes(_worker_pid, range(t, t + 20), unit="test", caller="t")]

    threads = [threading.Thread(target=call, args=(100 * t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert {t: [item for _, item in got] for t, got in results.items()} == {
        100 * t: list(range(100 * t, 100 * t + 20)) for t in range(4)
    }


def test_a_pool_whose_worker_died_is_replaced(monkeypatch):
    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    before = {pid for pid, _ in (get() for get in pool.outcomes(_worker_pid, range(4), unit="test", caller="t"))}
    with pytest.raises(RuntimeError, match="^the exit workers died; a script that calls t must guard its entry"):
        pool.outcomes(os._exit, [3, 3], unit="exit", caller="t")
    after = [get() for get in pool.outcomes(_worker_pid, range(4), unit="test", caller="t")]
    assert [item for _, item in after] == [0, 1, 2, 3]
    assert not before & {pid for pid, _ in after}


def _session_processes(sid: int) -> list[str]:
    """The ``/proc/<pid>/stat`` lines of every process, zombies included,
    in session ``sid``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process is gone
            continue
        # After the parenthesised command: state, parent, group, session.
        if int(text[text.rindex(")") + 2 :].split()[3]) == sid:
            found.append(text)
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the process table from /proc")
def test_no_process_outlives_the_interpreter():
    """A fresh interpreter in its own session runs the corpus and a bench
    batch on two cores and exits; then nothing of its session is left, not
    the workers and not multiprocessing's resource tracker, which would
    linger as a zombie of whatever process adopts it."""
    code = (
        "import rotogo.pool\n"
        "rotogo.pool.usable_cores = lambda: 2\n"
        "from rotogo.bench import BenchSpec, run_bench\n"
        "from rotogo.scenarios import ScenarioConfig\n"
        "from rotogo.selftest import run_selftest\n"
        "assert run_selftest(cases=5).passed\n"
        "cfg = ScenarioConfig(name='tiny', formula='G[0,1] (x > 0.5)', robot_start=(1.0, 1.0, 0.0, 0.0),\n"
        "                     mission_horizon=1.0, env_noise_std=0.0, first_attempt_iterations=3, cmaes_iterations=2)\n"
        "assert len(run_bench(BenchSpec(cfg, ('rotogo',), episodes=2)).results['rotogo']) == 2\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen(
        [sys.executable, "-c", code], env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    _, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    assert _session_processes(child.pid) == []
