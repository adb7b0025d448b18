"""Memory-system hops queue slotted records, never closures, and a PM
miss constructs no Event.

docs/ENGINE.md's rule: use an :class:`~repro.sim.Event` only when some
party waits on the occurrence, otherwise queue a bare callable.  On the
per-access paths (PM reads and load fills, persist and writeback
arrivals, buffered-persist landings, HOPS' bloom clears) that callable
is a ``__slots__`` record: one object per queued item, where a closure
costs a function, its closure tuple and a cell per captured name, and a
one-shot Event nobody waits on costs a callback list too.
"""

import types

import pytest

from repro.config import table3_config
from repro.harness.sweep import RunSpec, build_spec_system
from repro.mem import (CacheHierarchy, MemoryImage, PMController, PMDevice,
                       PMLoad)
from repro.sim import Environment, Event

#: (design, config overrides): the designs whose PMC policies and
#: persist buffers differ, and both designs' multi-controller routing.
CELLS = (
    ("PMEM-Spec", {}),
    ("HOPS", {}),
    ("StrandWeaver", {}),
    ("DPO", {"n_pm_controllers": 2}),
    ("IntelX86", {"n_pm_controllers": 2}),
    ("PMEM-Spec", {"n_pm_controllers": 2}),
)


@pytest.fixture
def queued(monkeypatch):
    """Every item pushed onto any environment's queue, in push order."""
    items = []
    schedule, schedule_at = Environment._schedule, Environment.schedule_at

    def recording_schedule(self, event, delay):
        items.append(event)
        schedule(self, event, delay)

    def recording_schedule_at(self, when, callback):
        items.append(callback)
        schedule_at(self, when, callback)

    monkeypatch.setattr(Environment, "_schedule", recording_schedule)
    monkeypatch.setattr(Environment, "schedule_at", recording_schedule_at)
    return items


@pytest.mark.parametrize("design,overrides", CELLS)
def test_no_queued_item_is_a_function(queued, design, overrides):
    spec = RunSpec(benchmark="tpcc", design=design, n_threads=4, seed=5,
                   fases_per_thread=12, config_overrides=overrides)
    system = build_spec_system(spec)
    system.run()
    assert system.env.capture_state()["sequence"] == len(queued)
    functions = sorted({item.__qualname__ for item in queued
                        if isinstance(item, types.FunctionType)})
    assert functions == []
    kinds = {type(item).__name__ for item in queued}
    assert {"_PMRead", "PMLoad"} <= kinds, kinds


def test_pm_missing_loads_construct_no_event(monkeypatch):
    env = Environment()
    config = table3_config(n_cores=2)
    initial = {block * 64: block + 1 for block in range(64)}
    pmc = PMController(env, config, PMDevice(initial))
    hierarchy = CacheHierarchy(env, config, pmc, MemoryImage(initial))
    made = []
    init = Event.__init__

    def counting_init(self, env):
        made.append(type(self).__name__)
        init(self, env)

    monkeypatch.setattr(Event, "__init__", counting_init)
    loads = [hierarchy.load(block % 2, block * 64, block * 10)
             for block in range(64)]
    env.run()
    assert made == []
    assert all(isinstance(load, PMLoad) for load in loads)
    assert [load.value for load in loads] == [b + 1 for b in range(64)]
    assert not any(load.stale for load in loads)
    assert hierarchy.stats["pm_reads"] == pmc.stats["reads"] == 64
