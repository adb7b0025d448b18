"""End-to-end tests for the durable-state checker (check_cell) and its
campaign wiring."""

import copy

import pytest

from repro.crashstates.checker import (CRASH_STATES_SCHEMA_VERSION,
                                       check_cell)
from repro.obsv.bus import EventBus, bus_scope
from repro.validation.campaign import TrialSpec, _oracle_for, run_campaign


def spec_for(design, fault="power-cut", snapshot_every=10, **kw):
    return TrialSpec(workload="array_swaps", design=design, fault=fault,
                     n_threads=2, fases_per_thread=4,
                     snapshot_every=snapshot_every, **kw)


CYCLES = (200, 900, 2200)


def strip_timings(payload):
    payload = copy.deepcopy(payload)
    payload.pop("timings", None)
    return payload


def checked_with_starts(*args, **kwargs):
    """check_cell's payload and the source of each acquisition's start,
    which only its ``snapshot_restore`` event records."""
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    with bus_scope(bus):
        payload = check_cell(*args, **kwargs)
    return payload, [event["source"] for event in seen
                     if event["kind"] == "snapshot_restore"]


class TestCheckCell:
    def test_strict_cell_converges_within_budget(self):
        """A fig9-style strict cell: every enumerated image recovers,
        the floor image pins against persisted_snapshot, and some
        cycles restore from rungs rather than cold-booting."""
        report, sources = checked_with_starts(spec_for("DPO"), CYCLES,
                                              image_budget=16)
        assert report["schema_version"] == CRASH_STATES_SCHEMA_VERSION
        assert report["model"] == "strict"
        assert report["consistent"]
        assert report["images_failed"] == 0
        assert report["floor_mismatches"] == 0
        assert report["cycles_checked"] == len(CYCLES)
        assert report["images_enumerated"] >= len(CYCLES)
        assert len(sources) == len(CYCLES)
        assert sources.count("resident") >= 1
        assert report["witness"] is None

    @pytest.mark.parametrize("design,model", [
        ("IntelX86", "epoch"), ("HOPS", "percore"), ("PMEM-Spec", "spec")])
    def test_relaxed_models_converge(self, design, model):
        report = check_cell(spec_for(design), (200, 1500),
                            image_budget=12)
        assert report["model"] == model
        assert report["consistent"], report["witness"]
        assert report["floor_mismatches"] == 0

    def test_torn_log_caught_and_shrunk(self):
        """The negative control: a torn undo-log tail must surface as a
        failing image, and shrinking must deliver a minimal witness."""
        report = check_cell(spec_for("DPO", fault="torn-log"),
                            (800,), image_budget=16)
        assert not report["consistent"]
        assert report["images_failed"] > 0
        assert report["shrink"] is not None
        witness = report["witness"]
        assert witness is not None
        assert witness["crash_cycle"] <= 800
        assert witness["image"] is not None
        assert witness["image"]["image_fingerprint"]
        assert witness["image"]["violations"]

    def test_virtual_fault_skipped(self):
        """virtual-misspec leaves the power on: there is no power-cut
        image, so the cell is skipped (vacuously consistent) rather
        than checked against a meaningless snapshot."""
        report = check_cell(spec_for("PMEM-Spec", fault="virtual-misspec"),
                            CYCLES)
        assert report["skipped"]
        assert report["consistent"]
        assert report["cycles"] == []

    def test_payload_deterministic(self):
        first = check_cell(spec_for("PMEM-Spec"), (300, 1200),
                           image_budget=12)
        second = check_cell(spec_for("PMEM-Spec"), (300, 1200),
                            image_budget=12)
        assert strip_timings(first) == strip_timings(second)

    def test_cold_path_matches_warm(self):
        """restore=False cold-boots every acquire in the same laddered
        timing universe; the payload -- enumerated images, verdicts and
        all -- must not change."""
        warm, warm_sources = checked_with_starts(
            spec_for("DPO", snapshot_every=10), (1500,), image_budget=12)
        cold, cold_sources = checked_with_starts(
            spec_for("DPO", snapshot_every=10), (1500,), image_budget=12,
            restore=False)
        assert warm_sources == ["resident"]
        assert cold_sources == ["cold"]
        assert strip_timings(warm) == strip_timings(cold)


class TestOracleGating:
    def test_non_speculating_design_still_gets_image_checks(self):
        """IntelX86 never speculates: the oracle's stale-read replay is
        gated off for it, but image enumeration still runs -- the
        gating must not silently skip the whole cell."""
        spec = spec_for("IntelX86")
        report = check_cell(spec, (500,), image_budget=8)
        assert report["images_checked"] > 0
        assert report["consistent"]
        # And the gate really is off for this design's oracle.
        from repro.validation.campaign import _build
        _, system, _, _, _ = _build(spec, capture=False)
        assert _oracle_for(system).check_stale_reads is False

    def test_speculating_design_keeps_the_gate_on(self):
        spec = spec_for("PMEM-Spec")
        from repro.validation.campaign import _build
        _, system, _, _, _ = _build(spec, capture=False)
        assert _oracle_for(system).check_stale_reads is True


class TestCampaignWiring:
    def test_campaign_crash_states_section(self):
        report = run_campaign(
            ["array_swaps"], ["DPO", "IntelX86"], budget=8,
            fases_per_thread=4, crash_states=True, image_budget=8)
        assert report.crash_states is not None
        section = report.crash_states
        assert section["schema_version"] == CRASH_STATES_SCHEMA_VERSION
        assert section["image_budget"] == 8
        assert len(section["cells"]) == 2
        assert all(cell["consistent"] for cell in section["cells"])
        assert report.crash_states_ok
        payload = report.to_dict()
        assert payload["crash_states_ok"]
        assert payload["crash_states"]["cells"]

    def test_campaign_fingerprint_reproducible(self):
        kwargs = dict(budget=8, fases_per_thread=4, seed=7,
                      crash_states=True, image_budget=8)
        first = run_campaign(["array_swaps"], ["DPO"], **kwargs)
        second = run_campaign(["array_swaps"], ["DPO"], **kwargs)
        assert first.fingerprint() == second.fingerprint()
        third = run_campaign(["array_swaps"], ["DPO"],
                             **{**kwargs, "seed": 8})
        assert first.fingerprint() != third.fingerprint()

    def test_campaign_without_crash_states_unchanged(self):
        report = run_campaign(["array_swaps"], ["DPO"], budget=8,
                              fases_per_thread=4)
        assert report.crash_states is None
        assert report.crash_states_ok
        assert "crash_states" not in report.to_dict()
