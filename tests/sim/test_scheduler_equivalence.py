"""Event-queue ordering contract, checked against a reference order.

The environment's queue promises a total order: ascending cycle, then
push order within a cycle.  These tests generate random event programs
(timeouts, manual events, same-cycle ties, ``schedule_at`` callbacks),
number every push the environment receives, record every item it
fires, and assert the firing order is exactly a test-local reference:
every pushed item sorted by (cycle, push order).  Plus the
snapshot-facing invariants the ladder relies on.
"""

import random

import pytest

from repro.sim import Environment
from repro.snapshot.store import SnapshotError

SEEDS = [0, 1, 2, 3, 17, 99, 1234, 777777]


class PushLog:
    """Wraps an environment's two push entry points: every push gets a
    ``(cycle, push number)`` key, recorded again when its item fires."""

    def __init__(self, env):
        self.pushed = []
        self.fired = []
        schedule, schedule_at = env._schedule, env.schedule_at

        def numbered_schedule(event, delay):
            key = (env.now + delay, len(self.pushed))
            # First callback, so it runs before the event's own.
            event.callbacks.insert(0, lambda _event: self.fired.append(key))
            schedule(event, delay)
            self.pushed.append(key)

        def numbered_schedule_at(when, callback):
            key = (when, len(self.pushed))

            def fire():
                self.fired.append(key)
                callback()

            schedule_at(when, fire)
            self.pushed.append(key)

        env._schedule = numbered_schedule
        env.schedule_at = numbered_schedule_at

    def reference(self):
        """The order the queue must fire in: (cycle, push order)."""
        return sorted(self.pushed)


def random_program(env, rng, log):
    """Spawn a random mess of processes against ``env``.

    Every observable step appends ``(now, tag)`` to ``log``.
    """
    gates = [env.event() for _ in range(rng.randint(1, 4))]

    def worker(pid):
        for step in range(rng.randint(1, 6)):
            choice = rng.random()
            if choice < 0.45:
                delay = rng.randint(0, 5)   # 0 => same-cycle tie
                yield env.timeout(delay)
                log.append((env.now, f"w{pid}.t{step}"))
            elif choice < 0.60:
                gate = rng.choice(gates)
                if not gate.triggered:
                    gate.succeed((pid, step))
                log.append((env.now, f"w{pid}.g{step}"))
                yield env.timeout(1)
            elif choice < 0.75:
                when = env.now + rng.randint(0, 7)
                env.schedule_at(
                    when,
                    lambda pid=pid, step=step:
                        log.append((env.now, f"w{pid}.c{step}")))
                yield env.timeout(rng.randint(1, 3))
            else:
                yield env.timeout(rng.randint(2, 9))
                log.append((env.now, f"w{pid}.s{step}"))
        log.append((env.now, f"w{pid}.done"))
        return pid

    def waiter(wid, gate):
        value = yield gate
        log.append((env.now, f"g{wid}={value}"))

    for pid in range(rng.randint(2, 6)):
        env.process(worker(pid))
    for wid, gate in enumerate(gates):
        env.process(waiter(wid, gate))
    # Unblock any waiter whose gate no worker happened to fire.
    def sweeper():
        yield env.timeout(100)
        for gate in gates:
            if not gate.triggered:
                gate.succeed(None)
    env.process(sweeper())


@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_fire_identically(seed):
    """The queue fires exactly the reference order, and the push
    counter the snapshots carry counts every push."""
    env = Environment()
    pushes = PushLog(env)
    log = []
    random_program(env, random.Random(seed), log)
    env.run()
    assert len(log) > 0
    assert pushes.fired == pushes.reference()
    assert env.pending() == 0
    assert env.capture_state()["sequence"] == len(pushes.pushed)
    assert [now for now, _tag in log] == sorted(now for now, _tag in log)


def test_same_cycle_fifo_is_insertion_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in "abcdef":
        env.process(proc(tag))
    env.schedule_at(5, lambda: order.append("cb"))
    env.run()
    # The callback is queued for cycle 5 immediately; the processes
    # only schedule their timeouts when their start markers fire at
    # cycle 0, so the callback is first in cycle 5's FIFO, then the
    # wakeups in process-start order.
    assert order == ["cb"] + list("abcdef")


def test_push_into_the_draining_cycle_lands_behind_the_cursor():
    env = Environment()
    pushes = PushLog(env)
    order = []

    def first():
        order.append("first")
        env.schedule_at(env.now, lambda: order.append("late"))
        env.timeout(0).add_callback(lambda _event: order.append("zero"))

    env.schedule_at(4, first)
    env.schedule_at(4, lambda: order.append("second"))
    env.schedule_at(5, lambda: order.append("next"))
    env.run()
    # Both pushes made while cycle 4 drains fire in cycle 4, after the
    # item that was already queued behind ``first``.
    assert order == ["first", "second", "late", "zero", "next"]
    assert pushes.fired == pushes.reference()


def test_capture_refuses_non_empty_queue():
    env = Environment()

    def proc():
        yield env.timeout(10)

    env.process(proc())
    env.run(until=5)
    with pytest.raises(SnapshotError, match="not empty"):
        env.capture_state()
    # After draining, capture is legal again.
    env.run()
    state = env.capture_state()
    assert state["now"] == 10


def test_call_at_rearms_after_restore():
    """Absolute-time callbacks must fire correctly in a restored run --
    the drain cursor survives a full drain and must be cleared by
    ``restore_state``."""
    env = Environment()
    fired = []
    env.schedule_at(5, lambda: fired.append(env.now))
    env.run()
    assert fired == [5]
    state = env.capture_state()

    # Restore into an environment whose queue has already drained much
    # later cycles: a stale drain cursor would corrupt ordering.
    target = Environment()
    target.schedule_at(50, lambda: None)
    target.run()
    assert target.now == 50
    target.restore_state(state)
    assert target.now == 5
    assert target.peek() is None
    refired = []
    target.schedule_at(12, lambda: refired.append(target.now))
    target.schedule_at(7, lambda: refired.append(target.now))
    target.run()
    assert refired == [7, 12]
    assert target.now == 12


def test_restored_env_keeps_sequence_continuity():
    """Restore carries the scheduling sequence number, so a restored
    run numbers subsequent events exactly as the original would."""
    env = Environment()
    env.schedule_at(3, lambda: None)
    env.run()
    state = env.capture_state()

    fresh = Environment()
    fresh.restore_state(state)
    assert fresh.capture_state() == state
