"""The checker's per-cell verdict memo is exact: every verdict it
reuses equals the one judging that image afresh would give."""

import pytest

import repro.crashstates.checker as checker
from repro.crashstates.checker import _Cell, _image_fingerprint, check_cell
from repro.crashstates.models import records_from_device_history
from repro.obsv.__main__ import main as validate_logs
from repro.obsv.bus import EventBus, JsonlSink, bus_scope
from repro.obsv.registry import MetricsRegistry
from repro.runtime.recovery import run_recovery
from repro.validation.campaign import TrialSpec, run_campaign
from repro.validation.faults import fault_by_name

#: About a dozen crash cycles, so images repeat across cycles and a
#: torn-log cell's failing verdicts are shrunk through backward probes.
CYCLES = range(200, 6000, 450)


@pytest.fixture
def judged(monkeypatch):
    """One entry per image the checker actually recovers."""
    calls = []
    real_recovery = checker.run_recovery

    def counted_recovery(*args, **kwargs):
        calls.append(1)
        return real_recovery(*args, **kwargs)

    monkeypatch.setattr(checker, "run_recovery", counted_recovery)
    return calls


def cell_spec(workload, design, fault):
    return TrialSpec(workload=workload, design=design, fault=fault,
                     n_threads=2, fases_per_thread=10, snapshot_every=3,
                     seed=42)


def judged_afresh(spec, monkeypatch, image_budget):
    """Run ``check_cell`` while recording, for every crash cycle it
    checks (shrinking's probes included), the cycle payload and the
    enumerated state set; return the report and, per cycle, the
    payload next to a verdict list re-judged afresh."""
    cells, statesets, payloads = [], {}, {}
    real_cell = checker._Cell
    real_enumerate = checker.enumerate_durable_states
    real_check_cycle = checker._check_cycle

    def recording_cell(*args, **kwargs):
        cells.append(real_cell(*args, **kwargs))
        return cells[-1]

    def recording_enumerate(design, records, crash_cycle, **kwargs):
        states = real_enumerate(design, records, crash_cycle, **kwargs)
        statesets[crash_cycle] = states
        return states

    def recording_check_cycle(cell, crash_cycle, *args):
        payloads[crash_cycle] = real_check_cycle(cell, crash_cycle, *args)
        return payloads[crash_cycle]

    monkeypatch.setattr(checker, "_Cell", recording_cell)
    monkeypatch.setattr(checker, "enumerate_durable_states",
                        recording_enumerate)
    monkeypatch.setattr(checker, "_check_cycle", recording_check_cycle)
    report = check_cell(spec, CYCLES, image_budget=image_budget)
    (cell,) = cells

    fault = fault_by_name(spec.fault)
    reference = {}
    for crash_cycle, states in statesets.items():
        verdicts = []
        for state, image in states.images(cell.initial_image):
            fault.mutate_snapshot(image, spec.n_threads)
            recovered = run_recovery(image, spec.n_threads,
                                     log_mode=spec.log_mode)
            problems = cell.workload.validate_recovered(
                recovered.data_image())
            verdicts.append((state, problems, _image_fingerprint(image)))
        reference[crash_cycle] = (payloads[crash_cycle], states, verdicts)
    return report, reference


def expected_cycle(payload, states, verdicts):
    """The cycle payload's verdict fields, recomputed afresh."""
    failing = [{
        "dropped_records": sorted(set(states.uncertain) - set(state)),
        "kept_records": len(states.kept_indices(state)),
        "image_fingerprint": fingerprint,
        "violations": problems[:4],
    } for state, problems, fingerprint in verdicts if problems]
    images_failed = len(failing)
    return {
        "images_failed": images_failed,
        "failing_images": failing[:checker._FAILING_IMAGE_CAP],
        "consistent": (payload["floor_matches"] and not images_failed
                       and not payload["oracle_violations"]),
    }


@pytest.mark.parametrize("workload,design,fault,budget", [
    ("queue", "IntelX86", "torn-log", 16),
    ("queue", "PMEM-Spec", "torn-log", 24),
    ("hashmap", "PMEM-Spec", "torn-log", 16),
    ("hashmap", "DPO", "torn-log", 24),
    ("hashmap", "PMEM-Spec", "power-cut", 16),
])
def test_memo_verdicts_equal_judging_every_image(workload, design, fault,
                                                 budget, judged,
                                                 monkeypatch):
    spec = cell_spec(workload, design, fault)
    report, reference = judged_afresh(spec, monkeypatch, budget)

    # The memo actually served images on every one of these cells.
    assert len(judged) < sum(len(states.states)
                             for _, states, _ in reference.values())
    for crash_cycle, (payload, states, verdicts) in reference.items():
        expected = expected_cycle(payload, states, verdicts)
        assert {key: payload[key] for key in expected} == expected, \
            crash_cycle
    by_cycle = {p["crash_cycle"]: p for p in report["cycles"]}
    assert report["images_failed"] == sum(
        expected_cycle(*reference[cycle])["images_failed"]
        for cycle in by_cycle)
    for cycle, payload in by_cycle.items():
        assert payload["consistent"] == \
            expected_cycle(*reference[cycle])["consistent"]

    if fault == "power-cut":
        assert report["consistent"] and report["witness"] is None
        return
    assert report["shrink"] is not None
    witness = report["witness"]
    expected = expected_cycle(*reference[witness["crash_cycle"]])
    assert witness["image"] == (expected["failing_images"][0]
                                if expected["failing_images"] else None)
    # Shrinking's verdict on every probe came out of the same memo.
    assert set(reference) > set(by_cycle)


def test_record_lists_extend_each_other_across_cycles():
    """The property the memo key rests on: a later horizon's record
    list extends an earlier one's, whichever rung acquisition used."""
    crash_cycles = (5000, 650, 3350, 200, 6000)
    cell = _Cell(cell_spec("hashmap", "PMEM-Spec", "power-cut"),
                 crash_cycles)
    lists, restored = [], []
    for crash_cycle in crash_cycles:
        _, restored_from, horizon = cell.acquire(crash_cycle)
        restored.append(restored_from)
        lists.append(records_from_device_history(
            cell.system.device.history, horizon=horizon))
    assert any(cycle is not None for cycle in restored)
    lists.sort(key=len)
    assert len(lists[0]) < len(lists[-1])
    for shorter, longer in zip(lists, lists[1:]):
        assert longer[:len(shorter)] == shorter
    for records in lists:
        cell.pin_records(records)
    assert cell.records == lists[-1]


def test_pin_records_rejects_lists_that_disagree():
    cell = _Cell(cell_spec("queue", "DPO", "power-cut"), (3000,))
    _, restored_from, horizon = cell.acquire(3000)
    assert restored_from is not None
    records = records_from_device_history(cell.system.device.history,
                                          horizon=horizon)
    cell.pin_records(records)
    cell.pin_records(records[:len(records) // 2])
    moved = records[5]._replace(cycle=records[5].cycle + 1)
    with pytest.raises(RuntimeError, match="record 5 differs"):
        cell.pin_records(records[:5] + [moved])


def test_observed_campaign_says_which_verdicts_were_reused(tmp_path,
                                                           judged):
    """Every enumerated image gets one image_check event; the ones the
    checker did not recover are marked ``source="memo"``, and the
    registry counts both sources."""
    registry = MetricsRegistry()
    bus = EventBus(registry=registry)
    bus.subscribe(registry.observe_event)
    seen = []
    bus.subscribe(seen.append)
    log = str(tmp_path / "events.jsonl")
    with JsonlSink(log) as sink, bus_scope(bus):
        bus.subscribe(sink)
        report = run_campaign(["hashmap", "queue"], ["PMEM-Spec", "DPO"],
                              budget=6, seed=3, fases_per_thread=10,
                              crash_states=True, image_budget=12)
    assert validate_logs([log]) == 0

    enumerated = sum(cell["images_enumerated"]
                     for cell in report.crash_states["cells"])
    checks = [e for e in seen if e["kind"] == "image_check"]
    sources = [e["source"] for e in checks]
    assert len(checks) == enumerated
    assert set(sources) == {"judged", "memo"}
    assert sources.count("judged") == len(judged)
    assert sources.count("memo") == enumerated - len(judged)

    counter = registry.counter("repro_image_checks_total")
    by_source = {}
    for labels, value in counter.series.items():
        source = dict(labels)["source"]
        by_source[source] = by_source.get(source, 0) + value
    assert by_source == {"judged": len(judged),
                         "memo": enumerated - len(judged)}
