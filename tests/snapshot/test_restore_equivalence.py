"""The tentpole property: restore-then-replay is bit-identical.

For every design x benchmark pair, a canonical laddered run is compared
against a replay restored from each captured rung: the end-of-run state
fingerprint AND the full serialised SimResult must match exactly.
"""

import pytest

from repro.snapshot import SnapshotError, SnapshotLadder, nearest_rung
from repro.validation.campaign import BENCHMARKS, build_crash_system

DESIGNS = ["PMEM-Spec", "IntelX86", "DPO", "HOPS"]
WORKLOADS = ["array_swaps", "queue", "hashmap"]


def laddered_run(design, workload, capture=True, every=5):
    _workload, system = build_crash_system(
        BENCHMARKS[workload], design, 2, 5, seed=7)
    ladder = SnapshotLadder(system, every=every,
                            capture=capture).install()
    result = system.run()
    return system, ladder, result


def replay_from(rung, design, workload, every=5):
    _workload, system = build_crash_system(
        BENCHMARKS[workload], design, 2, 5, seed=7)
    SnapshotLadder(system, every=every, capture=False).install()
    system.restore_state(rung["payload"])
    done = system.launch()
    system.advance(stop_event=done)
    system.advance()
    return system


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_restore_then_replay_bit_identical(design, workload):
    system, ladder, result = laddered_run(design, workload)
    assert ladder.rungs, "ladder captured no rungs; shrink `every`"
    reference_fp = system.state_fingerprint()
    reference_result = result.to_dict()
    for rung in ladder.rungs:
        replayed = replay_from(rung, design, workload)
        assert replayed.state_fingerprint() == reference_fp, \
            f"fingerprint diverged after restoring rung @{rung['cycle']}"
        assert replayed.result().to_dict() == reference_result, \
            f"result diverged after restoring rung @{rung['cycle']}"


@pytest.mark.parametrize("design", DESIGNS)
def test_capture_subset_changes_nothing(design):
    """Capturing never changes where cores park: ladders capturing
    every rung, a subset and none run one execution and reach the same
    rungs; the subset ladder captures exactly its rungs, byte for
    byte."""
    system, full, result = laddered_run(design, "hashmap", every=3)
    assert len(full.rungs) >= 4, "too few rungs; shrink `every`"
    subset = {rung["rung"] for rung in full.rungs[1::2]}
    runs = [(system, full, result),
            laddered_run(design, "hashmap", capture=subset, every=3),
            laddered_run(design, "hashmap", capture=False, every=3)]
    _, partial, _ = runs[1]
    _, free, _ = runs[2]

    assert full.reached == [{"cycle": rung["cycle"], "rung": rung["rung"]}
                            for rung in full.rungs]
    assert [rung["rung"] for rung in partial.rungs] == sorted(subset)
    assert [rung["fingerprint"] for rung in partial.rungs] == [
        rung["fingerprint"] for rung in full.rungs
        if rung["rung"] in subset]
    assert free.rungs == []
    assert partial.reached == free.reached == full.reached
    for other, _ladder, other_result in runs[1:]:
        assert other.state_fingerprint() == system.state_fingerprint()
        assert other_result.to_dict() == result.to_dict()


def test_restored_payload_fingerprint_matches_recorded():
    """A payload kept in memory still fingerprints as it did at capture
    after the run went on: ``capture_state`` aliases no live state, on
    any design or workload.  The crash-state checker restores such
    payloads as they are, cycle after cycle, so an aliasing capture
    would corrupt every later restore (``test_capture_contract.py``
    checks the other direction: writes to a capture never reach the
    machine)."""
    from repro.snapshot import fingerprint_state
    for design in DESIGNS:
        for workload in WORKLOADS:
            _system, ladder, _result = laddered_run(design, workload)
            assert ladder.rungs, (design, workload)
            for rung in ladder.rungs:
                assert fingerprint_state(rung["payload"]) == \
                    rung["fingerprint"], (design, workload, rung["cycle"])


def test_ladder_off_preserves_plain_run():
    # every=0 must not perturb timing at all vs. no ladder installed.
    _w, plain = build_crash_system(
        BENCHMARKS["queue"], "PMEM-Spec", 2, 5, seed=7)
    plain_result = plain.run()
    _w, laddered = build_crash_system(
        BENCHMARKS["queue"], "PMEM-Spec", 2, 5, seed=7)
    SnapshotLadder(laddered, every=0).install()
    assert laddered.run().to_dict() == plain_result.to_dict()


def test_capture_refused_mid_flight():
    _w, system = build_crash_system(
        BENCHMARKS["queue"], "PMEM-Spec", 2, 5, seed=7)
    done = system.launch()
    system.advance(until=50, stop_event=done)
    with pytest.raises(SnapshotError, match="not empty"):
        system.capture_state()


def test_restore_rejects_future_schema():
    system, ladder, _result = laddered_run("PMEM-Spec", "queue")
    payload = dict(ladder.rungs[0]["payload"])
    payload["schema_version"] = 999
    _w, fresh = build_crash_system(
        BENCHMARKS["queue"], "PMEM-Spec", 2, 5, seed=7)
    with pytest.raises(SnapshotError, match="schema"):
        fresh.restore_state(payload)


class TestNearestRung:
    RUNGS = [{"cycle": 100}, {"cycle": 300}, {"cycle": 200}]

    def test_exact_hit(self):
        assert nearest_rung(self.RUNGS, 200)["cycle"] == 200

    def test_between_rungs(self):
        assert nearest_rung(self.RUNGS, 299)["cycle"] == 200

    def test_past_last(self):
        assert nearest_rung(self.RUNGS, 10_000)["cycle"] == 300

    def test_before_first_is_cold(self):
        assert nearest_rung(self.RUNGS, 99) is None

    def test_empty(self):
        assert nearest_rung([], 500) is None
