"""The worker pool under process failure and start methods: a worker
killed mid-task is a failed attempt that retries to the serial answer,
workers exit when the process running the pool dies, a stop signal is
not lost to a worker's fork, and worker events reach the parent's bus
under every start method.

Each scenario runs in a subprocess under a deadline, so a pool that
hangs fails the test instead of the suite."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.obsv.bus import get_bus
from repro.validation import run_campaign
from repro.validation.campaign import report_fingerprint

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ROOT = os.path.dirname(SRC)
DEADLINE_S = 120

#: A small stratified campaign with several trial chunks per cell.
CAMPAIGN = dict(workloads=["hashmap"], designs=["PMEM-Spec", "IntelX86"],
                budget=8, n_threads=2, fases_per_thread=6, seed=5,
                batch=2, shrink=False)

BATCHED = """\
import functools, json, sys
from repro.harness import ParallelExecutor
from repro.obsv.bus import EventBus, set_bus
from tests.harness.test_pool import die_once, double_chunk, parity
bus = EventBus()
retries = []
bus.subscribe(lambda e: retries.append(e["error"])
              if e["kind"] == "task_retry" else None)
set_bus(bus)
out = ParallelExecutor(jobs=2).map_batched(
    functools.partial(die_once, sys.argv[1], double_chunk),
    list(range(12)), key=parity, chunk_size=3)
print(json.dumps({"out": out, "retries": retries}))
"""

CAMPAIGN_RUN = """\
import functools, json, sys
from repro.harness import ParallelExecutor
from repro.validation import run_campaign
from repro.validation.campaign import report_fingerprint
from tests.harness.test_pool import CAMPAIGN, die_once


class KillsFirstChunk(ParallelExecutor):
    def map_batched(self, fn, items, **kwargs):
        return super().map_batched(
            functools.partial(die_once, sys.argv[1], fn), items, **kwargs)


report = run_campaign(executor=KillsFirstChunk(jobs=2), **CAMPAIGN)
print(json.dumps({"fingerprint": report_fingerprint(report.to_dict())}))
"""

SLEEPER = """\
import sys
from repro.harness.pool import Task, WorkStealingPool
from repro.obsv.bus import EventBus, set_bus
from tests.harness.test_pool import nap
set_bus(EventBus())
WorkStealingPool(workers=2).run(
    [Task(key=str(i), fn=nap, arg=(sys.argv[1], 0.2)) for i in range(500)])
"""

STARTS = """\
import json, multiprocessing, os, sys
multiprocessing.set_start_method(sys.argv[1])
from repro.harness import ParallelExecutor, RunSpec
from repro.obsv.bus import EventBus, set_bus
from tests.harness.test_pool import double_chunk, parity
bus = EventBus()
starts = []
bus.subscribe(lambda e: starts[-1].append(e["index"])
              if e["kind"] == "task_start" and e["origin"] != os.getpid()
              else None)
set_bus(bus)
executor = ParallelExecutor(jobs=2)
starts.append([])
executor.run([RunSpec(benchmark="queue", design="PMEM-Spec", n_threads=2,
                      fases_per_thread=2, seed=seed) for seed in range(2)])
starts.append([])
executor.map(abs, [-1, -2, -3])
starts.append([])
executor.map_batched(double_chunk, list(range(8)), key=parity,
                     chunk_size=2)
print(json.dumps({method: sorted(indices) for method, indices
                  in zip(("run", "map", "map_batched"), starts)}))
"""

HELD = """\
import json, multiprocessing.process
from repro.harness import ParallelExecutor
from tests.harness.test_pool import stop_signals_blocked
held, start = [], multiprocessing.process.BaseProcess.start


def recording_start(process):
    held.append(stop_signals_blocked(None))
    start(process)


multiprocessing.process.BaseProcess.start = recording_start
before = stop_signals_blocked(None)
workers = ParallelExecutor(jobs=2).map(stop_signals_blocked, [0, 1, 2])
print(json.dumps({"held": held, "before": before, "workers": workers,
                  "after": stop_signals_blocked(None)}))
"""


def stop_signals_blocked(_arg):
    """Which of SIGINT and SIGTERM the calling thread blocks."""
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    return [int(s) for s in (signal.SIGINT, signal.SIGTERM) if s in blocked]


def die_once(marker, fn, arg):
    """``fn(arg)``, except that the first call anywhere SIGKILLs its own
    process (creating ``marker`` exclusively makes it happen once)."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return fn(arg)
    os.kill(os.getpid(), signal.SIGKILL)


def double_chunk(chunk):
    return [2 * item for item in chunk]


def parity(item):
    return item % 2


def nap(arg):
    """Record this process's pid in ``directory``, sleep, then emit more
    events than a pipe holds, so the reply that carries them cannot be
    written in one go (an orphan must not block on it)."""
    directory, seconds = arg
    with open(os.path.join(directory, str(os.getpid())), "w"):
        pass
    time.sleep(seconds)
    for _ in range(3000):
        get_bus().emit("note", text="x" * 60)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT, env.get("PYTHONPATH", "")])
    return env


def _run(script, *args) -> dict:
    try:
        done = subprocess.run([sys.executable, "-c", script, *args],
                              env=_env(), capture_output=True, text=True,
                              timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"pool still blocked after {DEADLINE_S}s")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_killed_worker_retries_to_the_serial_result(tmp_path):
    result = _run(BATCHED, str(tmp_path / "marker"))
    assert result["out"] == [2 * item for item in range(12)]
    [error] = result["retries"]
    assert "exited with code -9" in error


def test_campaign_with_a_killed_worker_matches_the_serial_report(
        tmp_path):
    serial = report_fingerprint(run_campaign(**CAMPAIGN).to_dict())
    marker = tmp_path / "marker"
    pooled = _run(CAMPAIGN_RUN, str(marker))
    assert marker.exists(), "no trial chunk ever ran in a worker"
    assert pooled["fingerprint"] == serial


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_every_worker_start_event_reaches_the_parent(method):
    """Each task of a pooled sweep, ``map`` and ``map_batched`` emits its
    ``task_start`` event in the worker that runs it; the event must
    reach the parent's bus whatever the start method."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    assert _run(STARTS, method) == {"run": [0, 1],
                                    "map": [0, 1, 2],
                                    "map_batched": [0, 1, 2, 3]}


def test_stop_signals_are_held_only_while_a_worker_forks():
    """Python drops an exception that a signal handler raises inside an
    at-fork hook, so a SIGTERM landing while a worker forked let a
    campaign run on to exit 0.  Each fork blocks SIGINT and SIGTERM;
    the parent's mask is restored after it, and workers run with both
    unblocked, so the pool can still terminate them."""
    result = _run(HELD)
    both = [int(signal.SIGINT), int(signal.SIGTERM)]
    assert result["held"] and all(h == both for h in result["held"])
    assert result["before"] == result["after"] == []
    assert result["workers"] == [[], [], []]


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_workers_exit_when_their_parent_is_killed(tmp_path):
    victim = subprocess.Popen([sys.executable, "-c", SLEEPER, str(tmp_path)],
                              env=_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    workers = set()
    try:
        deadline = time.monotonic() + DEADLINE_S
        while len(workers) < 2:
            assert victim.poll() is None, "pool finished before the kill"
            assert time.monotonic() < deadline, "workers never started"
            workers = {int(name) for name in os.listdir(tmp_path)}
            time.sleep(0.05)
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in workers):
            assert time.monotonic() < deadline, (
                f"workers {sorted(p for p in workers if _alive(p))} "
                f"outlived their parent")
            time.sleep(0.05)
    finally:
        victim.kill()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
