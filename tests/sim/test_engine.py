"""Unit tests for the DES kernel."""

import pytest

from repro.sim import (
    AllOf,
    Environment,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(5)
        log.append(env.now)
        yield env.timeout(7)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [5, 12]


def test_zero_timeout_runs_same_time():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(0)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_event_value_passes_to_process():
    env = Environment()
    gate = env.event()
    got = []

    def waiter():
        value = yield gate
        got.append((env.now, value))

    def poker():
        yield env.timeout(3)
        gate.succeed("hello")

    env.process(waiter())
    env.process(poker())
    env.run()
    assert got == [(3, "hello")]


def test_event_double_trigger_is_error():
    env = Environment()
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_event_value_before_trigger_is_error():
    env = Environment()
    gate = env.event()
    with pytest.raises(SimulationError):
        _ = gate.value


def test_process_return_value_becomes_event_value():
    env = Environment()
    results = []

    def child():
        yield env.timeout(2)
        return 42

    def parent():
        value = yield env.process(child())
        results.append((env.now, value))

    env.process(parent())
    env.run()
    assert results == [(2, 42)]


def test_all_of_waits_for_slowest():
    env = Environment()
    done = []

    def parent():
        values = yield env.all_of([env.timeout(3), env.timeout(9), env.timeout(1)])
        done.append((env.now, len(values)))

    env.process(parent())
    env.run()
    assert done == [(9, 3)]


def test_all_of_empty_fires_immediately():
    env = Environment()
    joined = AllOf(env, [])
    env.run()
    assert joined.triggered and joined.value == []


def test_run_until_stops_clock_at_bound():
    env = Environment()

    def proc():
        yield env.timeout(100)

    env.process(proc())
    final = env.run(until=30)
    assert final == 30
    assert env.now == 30


def test_run_with_stop_event():
    env = Environment()
    stop = env.event()
    trace = []

    def proc():
        for _ in range(10):
            yield env.timeout(10)
            trace.append(env.now)
            if env.now == 30:
                stop.succeed()

    env.process(proc())
    env.run(stop_event=stop)
    assert trace[-1] == 30


def test_call_at_runs_callback():
    env = Environment()
    fired = []
    env.schedule_at(17, lambda: fired.append(env.now))

    def proc():
        yield env.timeout(50)

    env.process(proc())
    env.run()
    assert fired == [17]


def test_call_at_past_rejected():
    env = Environment()

    def proc():
        yield env.timeout(10)

    env.process(proc())
    env.run()
    with pytest.raises(SimulationError):
        env.schedule_at(5, lambda: None)


def test_fifo_order_for_simultaneous_events():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in "abc":
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_yielding_non_event_is_error():
    env = Environment()

    def bad():
        yield 17

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_peek_reports_next_event_time():
    env = Environment()

    def proc():
        yield env.timeout(8)

    env.process(proc())
    # The process start marker is scheduled at time 0 first.
    assert env.peek() == 0
    env.step()
    assert env.peek() == 8


def test_many_processes_independent_clocks():
    env = Environment()
    finish = {}

    def proc(pid, delay):
        yield env.timeout(delay)
        finish[pid] = env.now

    for pid in range(50):
        env.process(proc(pid, pid * 3))
    env.run()
    assert finish == {pid: pid * 3 for pid in range(50)}


def test_all_of_retains_children():
    env = Environment()
    a, b = env.timeout(1), env.timeout(2)
    joined = env.all_of([a, b])
    assert joined.children == [a, b]
    env.run()
    assert joined.children == [a, b]


def test_abandon_closes_a_cut_launch_and_frees_it():
    import gc
    import weakref

    env = Environment()
    gate = env.event()
    stopped = []

    def parked():
        try:
            yield gate          # the frame holds the event it waits on
        finally:
            stopped.append(env.now)

    def ticking():
        while True:
            yield env.timeout(3)

    processes = [env.process(parked()), env.process(ticking())]
    launch = env.all_of(processes)
    env.run(until=10)
    generators = [weakref.ref(process._generator) for process in processes]
    gc.collect()
    gc.disable()
    try:
        env.abandon(launch)
        assert stopped == [10]
        assert env.peek() is None and env.pending() == 0
        assert env.now == 10
        gate.succeed()          # a stray wakeup fires nothing
        env.run()
        assert not launch.triggered
        assert not any(process.triggered for process in processes)
        del processes, launch, gate
        assert [ref() for ref in generators] == [None, None]
    finally:
        gc.enable()
