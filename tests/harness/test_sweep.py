"""Tests for the declarative sweep API and the parallel executor."""

import json

import pytest

import repro.harness.resume as resume
import repro.harness.sweep as sweep_mod
from repro.config import table3_config
from repro.harness import (
    ParallelExecutor,
    RunSpec,
    Sweep,
    SweepError,
)
from repro.harness.experiments import figure9
from repro.harness.resume import JOURNAL_NAME, task_key
from repro.harness.sweep import _execute_spec
from repro.obsv.bus import EventBus
from repro.system import RESULT_SCHEMA_VERSION, SimResult
from repro.workloads import BENCHMARKS

SMALL_GRID = Sweep.grid(benchmarks=("tatp", "queue"),
                        designs=("IntelX86", "PMEM-Spec"),
                        n_threads=2, seeds=7, fases_per_thread=5)


def spec_key(spec):
    return task_key(sweep_mod._run_spec, spec)


class Keeping(ParallelExecutor):
    """Keeps the sweep result a figure reduces to ratios."""

    def run(self, sweep):
        self.done = super().run(sweep)
        return self.done


@pytest.fixture(scope="module")
def one_result():
    return _execute_spec(RunSpec(benchmark="tatp", design="PMEM-Spec",
                                 n_threads=2, fases_per_thread=5, seed=7))


class TestRunSpecValidation:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            RunSpec(benchmark="nope", design="HOPS")

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            RunSpec(benchmark="tatp", design="nope")

    def test_bad_modes_rejected(self):
        with pytest.raises(ValueError, match="recovery_mode"):
            RunSpec(benchmark="tatp", design="HOPS",
                    recovery_mode="sometimes")
        with pytest.raises(ValueError, match="log_mode"):
            RunSpec(benchmark="tatp", design="HOPS", log_mode="wal")

    def test_config_core_mismatch_rejected(self):
        """The old run_benchmark silently rewrote config.n_cores to
        n_threads; RunSpec refuses the mismatch instead."""
        with pytest.raises(ValueError, match="never rewrites"):
            RunSpec(benchmark="tatp", design="HOPS", n_threads=2,
                    config=table3_config(n_cores=4))

    def test_explicit_core_override_accepted(self):
        spec = RunSpec(benchmark="tatp", design="HOPS", n_threads=2,
                       config=table3_config(n_cores=4),
                       config_overrides={"n_cores": 2})
        assert spec.resolved_config().n_cores == 2

    def test_probes_are_runnable(self):
        spec = RunSpec(benchmark="load_misspec_probe", design="PMEM-Spec",
                       n_threads=2)
        assert spec.resolved_fases() > 0


class TestRunSpecResolution:
    def test_default_fases_come_from_workload(self):
        spec = RunSpec(benchmark="tatp", design="HOPS", n_threads=2)
        assert spec.resolved_fases() == BENCHMARKS["tatp"].default_fases

    def test_overrides_apply_to_resolved_config(self):
        spec = RunSpec(benchmark="tatp", design="HOPS", n_threads=2,
                       config_overrides={"spec_buffer_entries": 16})
        assert spec.resolved_config().spec_buffer_entries == 16

    def test_task_key_ignores_label(self):
        a = RunSpec(benchmark="tatp", design="HOPS", n_threads=2,
                    label="x")
        b = RunSpec(benchmark="tatp", design="HOPS", n_threads=2,
                    label="y")
        assert spec_key(a) == spec_key(b)

    def test_task_key_tracks_config(self):
        a = RunSpec(benchmark="tatp", design="HOPS", n_threads=2)
        b = RunSpec(benchmark="tatp", design="HOPS", n_threads=2,
                    config_overrides={"persist_path_ns": 40.0})
        c = RunSpec(benchmark="tatp", design="HOPS", n_threads=2,
                    config=table3_config(n_cores=2,
                                         persist_path_ns=40.0))
        assert spec_key(a) not in (spec_key(b), spec_key(c))


class TestSweepGrid:
    def test_cartesian_order_is_deterministic(self):
        sweep = Sweep.grid(benchmarks=("tatp", "queue"),
                           designs=("HOPS",), n_threads=2, seeds=(1, 2))
        keys = [(s.benchmark, s.seed) for s in sweep]
        assert keys == [("tatp", 1), ("tatp", 2),
                        ("queue", 1), ("queue", 2)]

    def test_thread_counts_outermost(self):
        sweep = Sweep.grid(benchmarks=("tatp",), designs=("HOPS",),
                           n_threads=(2, 4))
        assert [s.n_threads for s in sweep] == [2, 4]

    def test_per_benchmark_fases_mapping(self):
        sweep = Sweep.grid(benchmarks=("tatp", "queue"),
                           designs=("HOPS",), n_threads=2,
                           fases_per_thread={"tatp": 7})
        by_bench = {s.benchmark: s for s in sweep}
        assert by_bench["tatp"].resolved_fases() == 7
        assert (by_bench["queue"].resolved_fases()
                == BENCHMARKS["queue"].default_fases)

    def test_concat(self):
        sweep = SMALL_GRID + SMALL_GRID
        assert len(sweep) == 2 * len(SMALL_GRID)


class TestResultSchema:
    def test_to_dict_is_versioned(self, one_result):
        payload = one_result.to_dict()
        assert payload["schema_version"] == RESULT_SCHEMA_VERSION
        assert payload["freq_ghz"] == one_result.freq_ghz

    def test_json_round_trip_is_lossless(self, one_result):
        payload = json.loads(json.dumps(one_result.to_dict()))
        again = SimResult.from_dict(payload)
        assert again.to_dict() == one_result.to_dict()
        assert again.throughput == one_result.throughput

    def test_executor_stats_excluded_from_payload(self, one_result):
        one_result.stats["executor"] = {"elapsed_s": 1.23, "cache_hit": 0}
        try:
            assert "executor" not in one_result.to_dict()["stats"]
        finally:
            del one_result.stats["executor"]


class TestExecutor:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = ParallelExecutor(jobs=1).run(SMALL_GRID)
        parallel = ParallelExecutor(jobs=4).run(SMALL_GRID)
        assert [r.to_dict() for r in serial.results] == \
            [r.to_dict() for r in parallel.results]
        assert serial.specs == parallel.specs

    def test_single_spec_accepted(self):
        spec = SMALL_GRID[0]
        done = ParallelExecutor(jobs=1).run(spec)
        assert len(done) == 1
        assert done[0].workload == spec.benchmark

    def test_timing_stats_attached(self):
        done = ParallelExecutor(jobs=1).run(SMALL_GRID)
        for _, result in done:
            info = result.stats["executor"]
            assert info["cache_hit"] == 0
            assert info["elapsed_s"] >= 0.0

    def test_progress_callback_fires_per_spec(self):
        lines = []
        ParallelExecutor(jobs=1, progress=lines.append).run(SMALL_GRID)
        assert len(lines) == len(SMALL_GRID)
        assert f"[{len(SMALL_GRID)}/{len(SMALL_GRID)}]" in lines[-1]


class TestCache:
    def test_second_run_served_entirely_from_cache(self, tmp_path):
        executor = ParallelExecutor(jobs=1, cache_dir=str(tmp_path))
        first = executor.run(SMALL_GRID)
        assert first.stats["cache_hits"] == 0
        second = executor.run(SMALL_GRID)
        assert second.stats["cache_hits"] == len(SMALL_GRID)
        assert second.stats["cache_misses"] == 0
        assert [r.to_dict() for r in second.results] == \
            [r.to_dict() for r in first.results]
        assert all(r.stats["executor"]["cache_hit"] == 1
                   for r in second.results)

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        ParallelExecutor(jobs=4, cache_dir=str(tmp_path)).run(SMALL_GRID)
        done = ParallelExecutor(jobs=1,
                                cache_dir=str(tmp_path)).run(SMALL_GRID)
        assert done.stats["cache_hits"] == len(SMALL_GRID)

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        ParallelExecutor(jobs=1, cache_dir=str(tmp_path)).run(SMALL_GRID)
        journal = tmp_path / JOURNAL_NAME
        records = journal.read_text().splitlines(keepends=True)
        records[0] = records[0][:40] + "\n"    # the first spec's, torn
        journal.write_text("".join(records))
        done = ParallelExecutor(jobs=1,
                                cache_dir=str(tmp_path)).run(SMALL_GRID)
        assert done.stats["cache_hits"] == len(SMALL_GRID) - 1
        assert done[0].stats["executor"]["cache_hit"] == 0
        assert done[0].fases_committed > 0

    def test_code_change_misses_the_journal(self, tmp_path, monkeypatch):
        """A result journaled by other code is never served: the edited
        code's result is, even though the spec is unchanged."""
        spec = SMALL_GRID[0]
        stale = ParallelExecutor(jobs=1,
                                 cache_dir=str(tmp_path)).run(spec)[0]
        monkeypatch.setattr(resume, "source_digest", lambda: "edited")
        monkeypatch.setattr(sweep_mod, "_execute_spec", lambda spec: (
            SimResult.from_dict(dict(stale.to_dict(),
                                     cycles=stale.cycles + 1))))
        done = ParallelExecutor(jobs=1, cache_dir=str(tmp_path)).run(spec)
        assert done.stats["cache_misses"] == 1
        assert done[0].cycles == stale.cycles + 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_figure_from_the_journal_equals_the_simulated_one(
            self, tmp_path, jobs):
        """Figure 9 served entirely from the journal: the same table
        and every result's payload, with nothing simulated."""
        def figure():
            bus, seen = EventBus(), []
            bus.subscribe(seen.append)
            executor = Keeping(jobs=jobs, cache_dir=str(tmp_path), bus=bus)
            table = figure9(scale=0.05, executor=executor)
            return (table, [r.to_dict() for r in executor.done.results],
                    seen)

        simulated, replayed = figure(), figure()
        assert replayed[:2] == simulated[:2]
        [finish] = [e for e in replayed[2] if e["kind"] == "sweep_finish"]
        assert (finish["cache_hits"], finish["cache_misses"]) == (32, 0)
        assert not [e for e in replayed[2] if e["kind"] == "spec_start"]


class TestFailureHandling:
    def test_worker_failure_falls_back_to_serial(self, monkeypatch,
                                                 tmp_path):
        """A spec that fails once re-runs under the retry policy and
        is counted as retried (a marker file per spec makes the failure
        happen once, in whichever process runs it first)."""
        real = _execute_spec

        def fails_once(spec):
            marker = tmp_path / f"{spec.benchmark}-{spec.design}"
            if not marker.exists():
                marker.write_text("failed")
                raise RuntimeError("worker crashed")
            return real(spec)

        monkeypatch.setattr(sweep_mod, "_execute_spec", fails_once)
        done = ParallelExecutor(jobs=2).run(SMALL_GRID)
        assert done.stats["retries"] == len(SMALL_GRID)
        assert all(r.fases_committed > 0 for r in done.results)
        assert all(r.stats["executor"]["retried"] == 1
                   for r in done.results)

    def test_deterministic_failure_surfaces_spec_and_traceback(
            self, monkeypatch):
        def broken(spec):
            raise RuntimeError("always broken")

        monkeypatch.setattr(sweep_mod, "_execute_spec", broken)
        with pytest.raises(SweepError) as excinfo:
            ParallelExecutor(jobs=2).run(SMALL_GRID)
        message = str(excinfo.value)
        assert "always broken" in message
        assert "worker traceback" in message
        assert excinfo.value.spec in list(SMALL_GRID)

    def test_serial_failure_surfaces_too(self, monkeypatch):
        def broken(spec):
            raise RuntimeError("always broken")

        monkeypatch.setattr(sweep_mod, "_execute_spec", broken)
        with pytest.raises(SweepError, match="always broken"):
            ParallelExecutor(jobs=1).run(SMALL_GRID)


class TestShimRemoval:
    def test_legacy_drivers_are_gone(self):
        """The PR 1 deprecation shims had one release of warnings and
        are now deleted outright, not silently aliased."""
        import repro.harness as harness
        for name in ("run_benchmark", "compare_designs",
                     "full_comparison"):
            assert not hasattr(harness, name)
            assert name not in harness.__all__
