"""SimResult payloads: versioned, and lossless through from_dict."""

import pytest

from repro.system import RESULT_SCHEMA_VERSION, SimResult


def make_result(**overrides):
    kwargs = dict(design="PMEM-Spec", workload="tpcc", n_cores=8,
                  cycles=1000, fases_committed=40, fases_aborted=2,
                  load_misspeculations=1, store_misspeculations=0,
                  stale_loads=3, spec_buffer_overflows=0, freq_ghz=2.0,
                  stats={"pmc": {"persists": 9}})
    kwargs.update(overrides)
    return SimResult(**kwargs)


class TestSchemaV3:
    def test_version_is_three(self):
        assert RESULT_SCHEMA_VERSION == 3

    def test_round_trip_with_timeseries(self):
        timeseries = {"window_cycles": 100,
                      "series": {"wpq_depth": {"kind": "gauge",
                                               "evicted_windows": 0,
                                               "windows": []}}}
        original = make_result(timeseries=timeseries)
        payload = original.to_dict()
        assert payload["schema_version"] == 3
        restored = SimResult.from_dict(payload)
        assert restored == original

    def test_round_trip_without_timeseries(self):
        original = make_result()
        restored = SimResult.from_dict(original.to_dict())
        assert restored == original
        assert restored.timeseries is None

    def test_throughput_survives_round_trip(self):
        original = make_result()
        restored = SimResult.from_dict(original.to_dict())
        assert restored.throughput == pytest.approx(original.throughput)

    def test_executor_stats_excluded_from_payload(self):
        result = make_result()
        result.stats["executor"] = {"elapsed_s": 1.23}
        assert "executor" not in result.to_dict()["stats"]
