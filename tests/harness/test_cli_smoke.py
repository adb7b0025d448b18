"""Tier-1 smoke test: the CLI end-to-end with --jobs and the store.

Drives ``python -m repro.harness fig9`` at a tiny scale through the
parallel executor, saves the artifact, and checks it loads; a second
run must be served from the outcome store's journal and produce
identical data.  Both runs write ``--events-out`` logs, which must
validate and tell the same story.
"""

import json

from repro.harness import BENCHMARK_ORDER
from repro.harness.__main__ import main
from repro.harness.resume import JOURNAL_NAME, load_journal
from repro.obsv import read_event_log, validate_event_log


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def _sweep_story(path):
    """The log's one ``sweep_finish`` and its ``task_finish`` sources."""
    assert validate_event_log(str(path)) == []
    events = read_event_log(str(path))
    [finish] = [e for e in events if e["kind"] == "sweep_finish"]
    sources = {e["source"] for e in events if e["kind"] == "task_finish"}
    return finish, sources


def test_cli_fig9_parallel_save_and_cache(tmp_path, capsys):
    save_first = tmp_path / "artifacts-1"
    save_second = tmp_path / "artifacts-2"
    cache = tmp_path / "cache"
    cells = len(BENCHMARK_ORDER) * 4
    base = ["fig9", "--scale", "0.1", "--threads", "2", "--seed", "3",
            "--jobs", "2", "--cache-dir", str(cache)]

    assert main(base + ["--save", str(save_first), "--events-out",
                        str(tmp_path / "events-1.jsonl")]) == 0
    assert "Figure 9" in capsys.readouterr().out
    first = read_json(str(save_first / "fig9.json"))
    assert set(first["data"]) == set(BENCHMARK_ORDER)

    # One journal record per grid cell was written.
    assert len(load_journal(str(cache / JOURNAL_NAME))) == cells

    # Every cell was simulated, by the pool's workers.
    finish, sources = _sweep_story(tmp_path / "events-1.jsonl")
    assert (finish["executed"], finish["from_journal"]) == (cells, 0)
    assert sources <= {"pool", "steal"} and "pool" in sources

    # Second run: all cells come from the journal, artifact identical.
    assert main(base + ["--save", str(save_second), "--events-out",
                        str(tmp_path / "events-2.jsonl")]) == 0
    second = read_json(str(save_second / "fig9.json"))
    assert second["data"] == first["data"]
    finish, sources = _sweep_story(tmp_path / "events-2.jsonl")
    assert (finish["from_journal"], finish["executed"]) == (cells, 0)
    assert sources == {"journal"}


def test_cli_no_cache_flag(tmp_path):
    save = tmp_path / "artifacts"
    assert main(["fig9", "--scale", "0.1", "--threads", "2", "--seed",
                 "3", "--no-cache", "--save", str(save)]) == 0
    assert (save / "fig9.json").exists()
    assert not list(tmp_path.glob("**/cache*"))


def test_cli_trace_writes_valid_chrome_trace(tmp_path, capsys):
    """Acceptance: the trace command emits schema-valid trace JSON."""
    import json

    from repro.sim import validate_trace_document

    out = tmp_path / "t.json"
    assert main(["trace", "array_swaps", "--design", "PMEMSpec",
                 "--trace-out", str(out)]) == 0
    assert "trace written to" in capsys.readouterr().out
    document = json.loads(out.read_text())
    assert validate_trace_document(document) == []
    spans = [e for e in document["traceEvents"]
             if e.get("ph") == "X" and e.get("cat") == "persist-path"]
    assert len(spans) >= 1


def test_cli_metrics_summary_sparklines(capsys):
    assert main(["metrics", "array_swaps", "--design", "PMEM-Spec",
                 "--threads", "2", "--summary",
                 "--metrics-window", "5000"]) == 0
    out = capsys.readouterr().out
    assert "Time series" in out
    assert "wpq_depth" in out


def test_cli_metrics_json(capsys):
    import json

    assert main(["metrics", "array_swaps", "--design", "PMEM-Spec",
                 "--threads", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "series" in payload and "window_cycles" in payload


def test_cli_trace_unknown_benchmark_is_user_error(capsys):
    assert main(["trace", "not_a_benchmark"]) == 2


def test_cli_validate_clean_campaign(tmp_path, capsys):
    """A tiny power-cut campaign is consistent, exits 0, and writes the
    CampaignReport artifact."""
    import json

    out = tmp_path / "campaign.json"
    assert main(["validate", "--planner", "stratified", "--budget", "6",
                 "--benchmarks", "array_swaps", "--designs",
                 "IntelX86,PMEM-Spec", "--report-out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "Crash-consistency campaign" in printed
    assert "CONSISTENT" in printed
    payload = json.loads(out.read_text())
    assert payload["consistent"] is True
    assert payload["total_trials"] > 0


def test_cli_validate_progress_says_each_line_once(capsys):
    """``--progress`` adds the executor's per-chunk lines; the
    campaign's own messages are logged once, not once more through a
    progress callback."""
    assert main(["validate", "--budget", "3", "--benchmarks", "queue",
                 "--designs", "IntelX86", "--progress"]) == 0
    logged = capsys.readouterr().err.splitlines()
    for message in ("profiling 1 cells", "round 1/1: 3 trials",
                    "campaign done", "[1/1] queue/IntelX86 x3"):
        assert sum(message in line for line in logged) == 1, message


def test_cli_validate_exits_nonzero_on_violations(capsys):
    """The torn-log fault (the deliberate-bug fixture) must gate: the
    command exits 1 and the table names the violated invariant."""
    assert main(["validate", "--fault", "torn-log", "--budget", "40",
                 "--benchmarks", "array_swaps", "--designs", "PMEM-Spec",
                 "--no-shrink"]) == 1
    printed = capsys.readouterr().out
    assert "structural" in printed
    assert "FAILING" in printed
