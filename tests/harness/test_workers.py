"""WorkStealingPool: ordering, affinity, stealing, retry, quarantine.
Task functions live at module level so the process-pool path can
pickle them."""

import os
import time

import pytest

from repro.harness.pool import MAX_ATTEMPTS, Task, WorkStealingPool
from repro.obsv import EventBus, bus_scope


def _square(x):
    return x * x


def _sleep_then(arg):
    delay, value = arg
    time.sleep(delay)
    return value


def _always_fails(x):
    raise ValueError(f"poison task {x}")


def _flaky_once(arg):
    """Fails on the first execution, succeeds after: the marker file
    is the cross-process attempt counter."""
    marker, value = arg
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("seen")
        raise RuntimeError("transient failure")
    return value


@pytest.fixture
def events():
    """The events the test's pool runs emit, on a bus in scope."""
    seen = []
    bus = EventBus()
    bus.subscribe(seen.append)
    with bus_scope(bus):
        yield seen


def _tasks(fn, args, affinity=None):
    return [Task(key=f"t{i}", fn=fn, arg=arg,
                 affinity=(affinity(arg) if affinity else i))
            for i, arg in enumerate(args)]


def test_workers_shed_inherited_signal_handlers():
    # The CLI's graceful-shutdown handlers raise into the dispatch
    # loop; a forked worker inheriting them outlives Pool.terminate()
    # (the parent then hangs in join()).  Worker entry points must put
    # SIGTERM back to its default disposition and ignore SIGINT.
    import signal

    from repro.harness.pool import reset_worker_signals

    def dummy(signum, frame):
        raise AssertionError("should never fire")

    saved = [(s, signal.signal(s, dummy))
             for s in (signal.SIGINT, signal.SIGTERM)]
    try:
        reset_worker_signals()
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
    finally:
        for signum, handler in saved:
            signal.signal(signum, handler)


class TestInline:
    def test_outcomes_in_submission_order(self):
        pool = WorkStealingPool(workers=1)
        outcomes = pool.run(_tasks(_square, [3, 1, 4, 1, 5]))
        assert [o.value for o in outcomes] == [9, 1, 16, 1, 25]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_retry_then_success(self, tmp_path, events):
        pool = WorkStealingPool(workers=1)
        marker = str(tmp_path / "marker")
        [outcome] = pool.run(_tasks(_flaky_once, [(marker, 7)]))
        assert outcome.ok and outcome.value == 7
        assert outcome.attempts == 2
        # The retry runs at once: there is no backoff to wait out.
        assert [e["delay_s"] for e in events
                if e["kind"] == "task_retry"] == [0.0]

    def test_quarantine_does_not_sink_the_run(self, events):
        pool = WorkStealingPool(workers=1)
        outcomes = pool.run(_tasks(_square, [2]) + [
            Task(key="bad", fn=_always_fails, arg=0, affinity=9)]
            + _tasks(_square, [3]))
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert outcomes[1].attempts == MAX_ATTEMPTS
        kinds = [e["kind"] for e in events]
        assert "task_quarantine" in kinds
        assert "poison task" in outcomes[1].error


class TestPlan:
    def test_affinity_groups_stay_together(self):
        pool = WorkStealingPool(workers=2)
        tasks = _tasks(_square, list(range(6)),
                       affinity=lambda x: x % 3)
        deques = pool.plan_deques(tasks, 2)
        # Groups round-robin in first-appearance order: affinity 0 and
        # 2 on worker 0, affinity 1 on worker 1, submission order kept.
        assert list(deques[0]) == [0, 3, 2, 5]
        assert list(deques[1]) == [1, 4]

    def test_plan_is_deterministic(self):
        pool = WorkStealingPool(workers=3)
        tasks = _tasks(_square, list(range(10)),
                       affinity=lambda x: x % 4)
        first = [list(d) for d in pool.plan_deques(tasks, 3)]
        second = [list(d) for d in pool.plan_deques(tasks, 3)]
        assert first == second


class TestPool:
    def test_outcomes_in_submission_order(self):
        pool = WorkStealingPool(workers=2)
        outcomes = pool.run(_tasks(_square, list(range(8))))
        assert [o.value for o in outcomes] == [x * x for x in range(8)]
        assert all(o.ok for o in outcomes)
        assert all(o.worker >= 0 for o in outcomes)

    def test_idle_worker_steals_from_straggler(self, events):
        pool = WorkStealingPool(workers=2)
        # Group "a" (one straggler + four quick tasks behind it) lands
        # on worker 0; group "b" (one quick task) on worker 1.  Worker
        # 1 drains instantly and must steal from the tail of deque 0.
        tasks = [Task(key="slow", fn=_sleep_then, arg=(0.8, "slow"),
                      affinity="a")]
        tasks += [Task(key=f"a{i}", fn=_sleep_then, arg=(0.01, i),
                       affinity="a") for i in range(4)]
        tasks += [Task(key="b0", fn=_sleep_then, arg=(0.01, "b"),
                       affinity="b")]
        outcomes = pool.run(tasks)
        assert [o.value for o in outcomes] == ["slow", 0, 1, 2, 3, "b"]
        steals = [e for e in events if e["kind"] == "steal"]
        assert steals, "idle worker never stole from the straggler"
        assert all(e["thief"] != e["victim"] for e in steals)
        assert any(o.stolen for o in outcomes)

    def test_retry_in_pool_mode(self, tmp_path, events):
        pool = WorkStealingPool(workers=2)
        marker = str(tmp_path / "marker")
        tasks = _tasks(_flaky_once, [(marker, 11)])
        tasks += _tasks(_square, [2, 3])
        outcomes = pool.run(tasks)
        assert [o.value for o in outcomes][1:] == [4, 9]
        assert outcomes[0].ok and outcomes[0].value == 11
        assert outcomes[0].attempts == 2
        assert "task_retry" in [e["kind"] for e in events]

    def test_quarantine_in_pool_mode(self):
        pool = WorkStealingPool(workers=2)
        outcomes = pool.run(
            _tasks(_square, [5, 6])
            + [Task(key="bad", fn=_always_fails, arg=1, affinity=9)])
        assert [o.ok for o in outcomes] == [True, True, False]
        assert outcomes[2].attempts == MAX_ATTEMPTS
