"""Telemetry: logger hierarchy, run context stamping, console output."""

import logging
import multiprocessing

import pytest

from repro.telemetry import (
    RunContextFilter,
    configure_logging,
    console,
    current_context,
    get_logger,
    run_context,
    seed_context,
)


class TestGetLogger:
    def test_prefixes_short_names(self):
        assert get_logger("harness").name == "repro.harness"

    def test_keeps_full_names(self):
        assert get_logger("repro.sim").name == "repro.sim"
        assert get_logger("repro").name == "repro"


class TestRunContext:
    def record(self):
        record = logging.LogRecord("repro.t", logging.INFO, __file__, 1,
                                   "msg", (), None)
        RunContextFilter().filter(record)
        return record

    def test_default_dashes(self):
        record = self.record()
        assert record.run_id == "-"
        assert record.spec_hash == "-"

    def test_context_stamps_records(self):
        with run_context(run_id="fig9", spec_hash="abc123"):
            record = self.record()
        assert record.run_id == "fig9"
        assert record.spec_hash == "abc123"

    def test_context_restores_on_exit(self):
        with run_context(run_id="outer"):
            with run_context(run_id="inner"):
                assert self.record().run_id == "inner"
            assert self.record().run_id == "outer"
        assert self.record().run_id == "-"

    def test_partial_context(self):
        with run_context(spec_hash="only-hash"):
            record = self.record()
        assert record.run_id == "-"
        assert record.spec_hash == "only-hash"


class TestConfigureLogging:
    def test_idempotent_handler_install(self):
        root = configure_logging(logging.INFO)
        configure_logging(logging.DEBUG)
        ours = [h for h in root.handlers
                if getattr(h, "_repro_telemetry", False)]
        assert len(ours) == 1
        assert root.level == logging.DEBUG

    def test_diagnostics_go_to_stderr_not_stdout(self, capsys):
        configure_logging(logging.INFO)
        get_logger("test").info("diagnostic line")
        captured = capsys.readouterr()
        assert "diagnostic line" not in captured.out
        assert "diagnostic line" in captured.err

    def test_format_includes_run_context(self, capsys):
        configure_logging(logging.INFO)
        with run_context(run_id="fig9", spec_hash="deadbeef"):
            get_logger("test").info("hello")
        assert "[fig9 deadbeef]" in capsys.readouterr().err


class TestConsole:
    def test_writes_to_stdout_at_call_time(self, capsys):
        console("data line")
        console()
        captured = capsys.readouterr()
        assert captured.out == "data line\n\n"
        assert captured.err == ""


class TestCurrentAndSeedContext:
    def test_current_context_reflects_scope(self):
        assert current_context() == {"run_id": "-", "spec_hash": "-"}
        with run_context(run_id="fig9"):
            assert current_context()["run_id"] == "fig9"

    def test_current_context_returns_a_copy(self):
        snapshot = current_context()
        snapshot["run_id"] = "mutated"
        assert current_context()["run_id"] == "-"

    def test_seed_context_ignores_unknown_keys(self):
        with run_context(run_id="base"):
            seed_context({"run_id": "seeded", "bogus": "nope"})
            record = logging.LogRecord("repro.t", logging.INFO,
                                       __file__, 1, "m", (), None)
            RunContextFilter().filter(record)
            assert record.run_id == "seeded"
            assert not hasattr(record, "bogus")


def _worker_probe(_arg):
    """Runs in a pool worker: report the ambient context a filtered
    log record sees there."""
    record = logging.LogRecord("repro.w", logging.INFO, __file__, 1,
                               "m", (), None)
    RunContextFilter().filter(record)
    return {"record_run_id": record.run_id,
            "record_spec_hash": record.spec_hash,
            "context": current_context()}


class TestContextUnderMultiprocessing:
    """The parent's run context must reach pool workers -- the
    propagation contract the sweep's worker initializer relies on."""

    def probe(self):
        context = multiprocessing.get_context()
        if context.get_start_method() != "fork":
            pytest.skip("context inheritance test needs fork workers")
        with context.Pool(processes=1, initializer=seed_context,
                          initargs=(current_context(),)) as pool:
            return pool.map(_worker_probe, [None])[0]

    def test_worker_records_carry_parent_context(self, capsys):
        with run_context(run_id="fig9", spec_hash="abc123"):
            probe = self.probe()
        assert probe["record_run_id"] == "fig9"
        assert probe["record_spec_hash"] == "abc123"
        assert probe["context"] == {"run_id": "fig9",
                                    "spec_hash": "abc123"}
        # capsys stays intact across the fork/join.
        console("after pool")
        assert capsys.readouterr().out == "after pool\n"

    def test_worker_defaults_without_scope(self):
        probe = self.probe()
        assert probe["record_run_id"] == "-"

    def test_sweep_worker_events_carry_parent_run_id(self):
        # End to end: a pooled sweep under run_context ships events
        # whose run_id is the parent's and whose spec_hash is the
        # worker's own (set per spec inside the worker).
        from repro.harness import ParallelExecutor, RunSpec
        from repro.harness.sweep import spec_hash
        from repro.obsv.bus import EventBus, bus_scope
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        specs = [RunSpec(benchmark="queue", design="PMEM-Spec",
                         n_threads=2, fases_per_thread=2, seed=seed)
                 for seed in (1, 2)]
        with run_context(run_id="fig9-sweep"), bus_scope(bus):
            ParallelExecutor(jobs=2).run(specs)
        parent_origin = seen[0]["origin"]
        shipped = [e for e in seen if e["origin"] != parent_origin]
        assert shipped, "no worker-side events were shipped"
        assert all(e["run_id"] == "fig9-sweep" for e in shipped)
        hashes = {e["spec_hash"] for e in shipped
                  if e["kind"] == "task_start"}
        assert hashes == {spec_hash(spec) for spec in specs}
