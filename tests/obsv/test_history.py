"""Bench-history ingestion and trend rendering."""

import json
import os

from repro.obsv.bus import EventBus, JsonlSink
from repro.obsv.history import (
    BenchRecord,
    HistoryReport,
    collect_records,
    load_bench_file,
)


def write_bench(path, bench, **scalars):
    payload = {"bench": bench, "notes": "not a number"}
    payload.update(scalars)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return str(path)


def write_events(path):
    bus = EventBus()
    with JsonlSink(str(path)) as sink:
        bus.subscribe(sink)
        bus.emit("sweep_start", n_specs=4, jobs=2)
        bus.emit("sweep_finish", n_specs=4, from_journal=1,
                 executed=3, retries=0, elapsed_s=2.0)
        bus.emit("campaign_finish", trials=10, elapsed_s=5.0,
                 failures=1)
    return str(path)


class TestIngestion:
    def test_load_bench_file_numeric_scalars_only(self, tmp_path):
        path = write_bench(tmp_path / "BENCH_engine.json", "engine",
                           cycles_per_sec=1e6, speedup=3.5)
        record = load_bench_file(path)
        assert record.series == "engine"
        assert record.metrics == {"cycles_per_sec": 1e6,
                                  "speedup": 3.5}

    def test_load_bench_file_unreadable_returns_none(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{nope")
        assert load_bench_file(str(bad)) is None
        assert load_bench_file(str(tmp_path / "absent.json")) is None

    def test_collect_walks_bench_and_event_logs(self, tmp_path):
        write_bench(tmp_path / "BENCH_engine.json", "engine",
                    cycles_per_sec=1e6)
        sub = tmp_path / "ci" / "run1"
        os.makedirs(str(sub))
        write_bench(sub / "BENCH_engine.json", "engine",
                    cycles_per_sec=2e6)
        write_events(sub / "fig9-events.jsonl")
        records = collect_records(str(tmp_path))
        by_series = {}
        for record in records:
            by_series.setdefault(record.series, []).append(record)
        assert len(by_series["engine"]) == 2
        assert len(by_series["sweep"]) == 1
        assert len(by_series["campaign"]) == 1
        sweep = by_series["sweep"][0]
        # Simulated specs only: 3 executed in 2 s (the journaled one is
        # not work).
        assert sweep.metrics["specs_per_sec"] == 1.5
        assert sweep.metrics["journal_ratio"] == 0.25
        assert by_series["campaign"][0].metrics["trials_per_sec"] == 2.0

    def test_a_cached_rerun_does_not_read_as_faster(self, tmp_path):
        # The same sweep twice on one journal: every spec simulated,
        # then every spec served from the journal in a fraction of the
        # time.
        runs = (("cold-events.jsonl", 0, 8, 4.0),
                ("warm-events.jsonl", 8, 0, 0.01))
        for when, (name, stored, executed, elapsed) in enumerate(runs):
            path = str(tmp_path / name)
            bus = EventBus()
            with JsonlSink(path) as sink:
                bus.subscribe(sink)
                bus.emit("sweep_finish", n_specs=8, from_journal=stored,
                         executed=executed, retries=0,
                         elapsed_s=elapsed)
            os.utime(path, (when, when))
        report = HistoryReport(collect_records(str(tmp_path)))
        rates = report.trends["sweep"]["specs_per_sec"]
        assert rates == [2.0, 0.0]
        assert report.trends["sweep"]["journal_ratio"] == [0.0, 1.0]

    def test_collect_single_file(self, tmp_path):
        path = write_bench(tmp_path / "BENCH_x.json", "x", v=1.0)
        records = collect_records(path)
        assert len(records) == 1

    def test_collect_ignores_unrelated_files(self, tmp_path):
        (tmp_path / "README.md").write_text("hi")
        (tmp_path / "data.json").write_text("{}")
        assert collect_records(str(tmp_path)) == []


class TestReport:
    def records(self):
        return [
            BenchRecord("engine", "a.json",
                        {"cycles_per_sec": 1e6}, (1, "a")),
            BenchRecord("engine", "b.json",
                        {"cycles_per_sec": 1.5e6}, (2, "b")),
        ]

    def test_trends_chronological(self):
        report = HistoryReport(self.records())
        assert report.trends["engine"]["cycles_per_sec"] == [1e6, 1.5e6]

    def test_terminal_render(self):
        out = HistoryReport(self.records()).render_terminal()
        assert "engine  (2 runs)" in out
        assert "cycles_per_sec" in out
        assert "(+50.0%)" in out

    def test_terminal_render_empty(self):
        out = HistoryReport([]).render_terminal()
        assert "no BENCH_*.json" in out

    def test_html_render_and_save(self, tmp_path):
        report = HistoryReport(self.records())
        page = report.render_html()
        assert "<svg" in page and "polyline" in page
        assert "engine" in page
        path = str(tmp_path / "history.html")
        assert report.save_html(path) == path
        assert open(path).read() == page

    def test_html_render_empty(self):
        assert "(no records)" in HistoryReport([]).render_html()

    def test_single_sample_series_renders(self):
        # One run: no delta possible, must still render without a
        # divide-by-zero in the SVG x spacing.
        record = BenchRecord("solo", "s.json", {"v": 2.0}, (1, "s"))
        report = HistoryReport([record])
        assert "solo" in report.render_terminal()
        assert "<svg" in report.render_html()

    def test_to_dict(self):
        payload = HistoryReport(self.records()).to_dict()
        assert payload["series"]["engine"]["cycles_per_sec"] == [
            1e6, 1.5e6]
        assert payload["sources"]["engine"] == ["a.json", "b.json"]
