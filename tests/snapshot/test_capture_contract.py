"""``System.capture_state`` returns fresh containers.

The crash-state checker restores the payloads it captured as they are,
crash cycle after crash cycle, and a stored ladder encodes each capture
straight to bytes: nothing copies a payload first.  That is sound only
because no list, dict or set in a capture is shared with the live
machine, so overwriting every one of them must leave the machine -- its
fingerprint and its next capture -- exactly as it was.  The one
documented exception is the trace prefix's rows: they are the
recorder's own immutable tuples, whose args dicts are never written
after recording, so the test overwrites the row list but not the rows.
"""

import copy

import pytest

from repro.persistency import design_classes
from repro.sim.trace import TraceRecorder
from repro.snapshot import SnapshotLadder
from repro.validation.campaign import BENCHMARKS, build_crash_system

SCRIBBLE = "scribbled"


def scribble(value) -> None:
    """Overwrite every list, dict and set reachable from ``value``,
    through tuples too, innermost first."""
    if isinstance(value, tuple):
        for item in value:
            scribble(item)
    elif isinstance(value, list):
        for item in value:
            scribble(item)
        value[:] = [SCRIBBLE]
    elif isinstance(value, dict):
        for item in value.values():
            scribble(item)
        value.clear()
        value[SCRIBBLE] = SCRIBBLE
    elif isinstance(value, set):
        value.clear()
        value.add(SCRIBBLE)


def scribble_capture(payload: dict) -> None:
    # The row list is the capture's own; the rows are the recorder's.
    payload["trace"]["events"][:] = [SCRIBBLE]
    scribble(payload)


class CheckingLadder(SnapshotLadder):
    """At every rung, before the real capture: capture, overwrite the
    capture, and check the machine did not notice."""

    checked = 0

    def _capture(self, rung_no: int) -> None:
        system = self.system
        fingerprint = system.state_fingerprint()
        reference = copy.deepcopy(system.capture_state())
        payload = system.capture_state()
        assert payload["trace"]["events"], "no trace prefix to check"
        scribble_capture(payload)
        assert system.state_fingerprint() == fingerprint, rung_no
        assert system.capture_state() == reference, rung_no
        self.checked += 1
        super()._capture(rung_no)


@pytest.mark.parametrize("design", sorted(design_classes()))
def test_overwriting_a_capture_leaves_the_machine_unchanged(design):
    _workload, system = build_crash_system(
        BENCHMARKS["hashmap"], design, 2, 6, seed=7,
        tracer=TraceRecorder())
    # Device history is captured only while recorded (the checker
    # records it).
    system.device.record_history = True
    ladder = CheckingLadder(system, every=2).install()
    system.run()
    assert ladder.checked >= 3
    assert ladder.checked == len(ladder.rungs)


def test_an_aliased_capture_fails_the_check(monkeypatch):
    # The negative control: a component whose capture hands out its
    # live list must be caught.
    from repro.mem.pm_device import PMDevice
    original = PMDevice.capture_state

    def aliased(self):
        state = original(self)
        state["history"] = self.history
        return state
    monkeypatch.setattr(PMDevice, "capture_state", aliased)
    _workload, system = build_crash_system(
        BENCHMARKS["hashmap"], "PMEM-Spec", 2, 6, seed=7,
        tracer=TraceRecorder())
    system.device.record_history = True
    CheckingLadder(system, every=2).install()
    with pytest.raises(AssertionError):
        system.run()
