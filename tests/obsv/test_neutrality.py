"""Observability is provably neutral: same simulation, watched or not.

The acceptance property for the whole obsv stack: enabling the event
bus and the JSONL sink must not change a single simulated bit --
SimResult payloads and snapshot fingerprints are compared byte for
byte against an unobserved run.
"""

import json

import pytest

from repro.harness import ParallelExecutor, RunSpec
from repro.obsv.bus import EventBus, JsonlSink, bus_scope, set_bus
from repro.snapshot import SnapshotLadder
from repro.validation.campaign import (
    BENCHMARKS,
    build_crash_system,
    run_campaign,
)


@pytest.fixture(autouse=True)
def _restore_current_bus():
    yield
    set_bus(None)


def observed_bus(tmp_path, tag):
    """A bus with a JSONL sink, like the CLI's ``--events-out``, plus
    the list of events it delivered."""
    bus = EventBus()
    bus.subscribe(JsonlSink(str(tmp_path / f"{tag}-events.jsonl")))
    seen = []
    bus.subscribe(seen.append)
    return bus, seen


def kinds(seen, kind):
    return [event for event in seen if event["kind"] == kind]


def sim_payloads(outcome):
    """Deterministic serialisation of every result, with the
    host-specific executor section (wall-clock timings) dropped."""
    payloads = []
    for result in outcome.results:
        payload = result.to_dict()
        payload["stats"] = {k: v for k, v in payload["stats"].items()
                            if k != "executor"}
        payloads.append(json.dumps(payload, sort_keys=True))
    return payloads


SPECS = [RunSpec(benchmark="queue", design="PMEM-Spec", n_threads=2,
                 fases_per_thread=2, seed=7),
         RunSpec(benchmark="array_swaps", design="IntelX86",
                 n_threads=2, fases_per_thread=2, seed=7)]


class TestSweepNeutrality:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_bit_identical_with_full_observability(
            self, tmp_path, jobs):
        plain = ParallelExecutor(jobs=jobs).run(SPECS)
        bus, seen = observed_bus(tmp_path, "sweep")
        watched = ParallelExecutor(jobs=jobs, bus=bus).run(SPECS)
        assert sim_payloads(watched) == sim_payloads(plain)
        assert len(kinds(seen, "spec_finish")) == len(SPECS)

    def test_current_bus_scope_neutral_too(self, tmp_path):
        plain = ParallelExecutor(jobs=1).run(SPECS)
        bus, seen = observed_bus(tmp_path, "scope")
        with bus_scope(bus):
            watched = ParallelExecutor(jobs=1).run(SPECS)
        assert sim_payloads(watched) == sim_payloads(plain)
        assert len(kinds(seen, "spec_finish")) == len(SPECS)


class TestSnapshotNeutrality:
    def laddered(self, bus=None):
        _workload, system = build_crash_system(
            BENCHMARKS["queue"], "PMEM-Spec", 2, 5, seed=7)
        ladder = SnapshotLadder(system, every=5).install()
        if bus is not None:
            with bus_scope(bus):
                system.run()
        else:
            system.run()
        return system, ladder

    def test_rung_fingerprints_bit_identical(self, tmp_path):
        plain_system, plain_ladder = self.laddered()
        bus, seen = observed_bus(tmp_path, "ladder")
        watched_system, watched_ladder = self.laddered(bus)
        assert plain_ladder.rungs, "no rungs captured; shrink `every`"
        assert ([r["fingerprint"] for r in watched_ladder.rungs]
                == [r["fingerprint"] for r in plain_ladder.rungs])
        assert (watched_system.state_fingerprint()
                == plain_system.state_fingerprint())
        # And the bus really was live: rung captures were narrated.
        assert len(kinds(seen, "rung_capture")) == len(watched_ladder.rungs)


class TestCampaignNeutrality:
    def campaign(self, bus=None):
        scope = bus_scope(bus) if bus is not None else None
        kwargs = dict(workloads=["queue"], designs=["PMEM-Spec"],
                      budget=6, seed=11, fases_per_thread=5,
                      shrink=False)
        if scope is not None:
            with scope:
                return run_campaign(**kwargs)
        return run_campaign(**kwargs)

    def test_report_rows_identical(self, tmp_path):
        plain = self.campaign()
        bus, seen = observed_bus(tmp_path, "campaign")
        watched = self.campaign(bus)
        assert watched.rows() == plain.rows()
        assert watched.fingerprint() == plain.fingerprint()
        # The bus was live: one trial_finish per trial, one
        # campaign_finish whose totals are the report's.
        assert len(kinds(seen, "trial_finish")) == watched.total_trials
        [finish] = kinds(seen, "campaign_finish")
        assert finish["trials"] == watched.total_trials
