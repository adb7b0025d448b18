"""Journaled resume: ``validate --resume DIR`` and the outcome store.

The store is the resumability hinge: identical work must produce
identical task keys, journaled outcomes must replay instead of
re-simulating, a code change must miss every journaled outcome, and a
torn journal line must cost one task at most.
The CLI tests kill a real ``validate --resume`` subprocess mid-campaign
(SIGKILL, and SIGTERM through the graceful handler) on the
``bench_campaign`` 160-trial fixture and rerun it: the rerun must
execute exactly the tasks the journal lacks and print the report
fingerprint of an uninterrupted run."""

import functools
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

import repro
import repro.harness.resume as resume
from repro.harness import ParallelExecutor, WorkerTaskError
from repro.harness.__main__ import main
from repro.harness.resume import (
    JOURNAL_NAME,
    append_journal,
    load_journal,
    task_key,
)
from repro.validation.campaign import report_fingerprint

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _double(x):
    return x * 2


def _double_chunk(chunk):
    return [item * 2 for item in chunk]


def _bad_chunk(chunk):
    return [0]                      # wrong length on purpose


def _always_fails(x):
    raise ValueError("poison")


def _scale(factor, x):
    return factor * x


def _executor(tmp_path):
    return ParallelExecutor(jobs=1, cache_dir=str(tmp_path))


class TestTaskKey:
    def test_stable_across_dict_ordering(self):
        assert (task_key(_double, {"a": 1, "b": 2})
                == task_key(_double, {"b": 2, "a": 1}))

    def test_distinguishes_fn_and_arg(self):
        assert task_key(_double, 1) != task_key(_double, 2)
        assert task_key(_double, 1) != task_key(_double_chunk, 1)

    def test_a_partial_is_keyed_by_its_function_and_bound_arguments(
            self):
        key = task_key(functools.partial(_scale, 5), 1)
        assert key == task_key(functools.partial(_scale, 5), 1)
        assert key != task_key(functools.partial(_scale, 6), 1)
        assert key != task_key(functools.partial(_scale, factor=5), 1)
        assert key != task_key(_scale, 1)

    def test_a_lambda_or_nested_function_has_no_durable_key(self):
        def nested(x):
            return x

        for fn in (lambda x: x, nested, functools.partial(nested, 1)):
            with pytest.raises(ValueError, match="no durable name"):
                task_key(fn, 1)


class TestOutcomeStore:
    def test_map_journals_then_short_circuits(self, tmp_path):
        executor = _executor(tmp_path)
        assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert executor.stats == {"tasks_from_journal": 0,
                                  "tasks_executed": 3}
        # A fresh executor over the same directory replays the journal.
        resumed = _executor(tmp_path)
        assert resumed.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert resumed.stats == {"tasks_from_journal": 3,
                                 "tasks_executed": 0}

    def test_map_batched_scatter_and_resume(self, tmp_path):
        executor = _executor(tmp_path)
        items = list(range(10))
        key = lambda x: x // 5                          # noqa: E731
        out = executor.map_batched(_double_chunk, items, key=key,
                                   chunk_size=3)
        assert out == [x * 2 for x in items]
        assert executor.stats["tasks_executed"] == 4    # 2 per group
        resumed = _executor(tmp_path)
        assert resumed.map_batched(_double_chunk, items, key=key,
                                   chunk_size=3) == out
        assert resumed.stats["tasks_executed"] == 0
        assert resumed.stats["tasks_from_journal"] == 4

    def test_partial_journal_runs_only_missing(self, tmp_path):
        _executor(tmp_path).map(_double, [1, 2])
        resumed = _executor(tmp_path)
        assert resumed.map(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
        assert resumed.stats["tasks_from_journal"] == 2
        assert resumed.stats["tasks_executed"] == 2

    def test_torn_tail_then_two_resumes_replay_everything(self, tmp_path):
        """A kill mid-append leaves a torn last line.  The outcomes the
        first resume journals after it must reach the second."""
        _executor(tmp_path).map(_double, [1, 2])
        with open(tmp_path / JOURNAL_NAME, "a") as handle:
            handle.write('{"key":"0f3a","value":{"ty')
        first = _executor(tmp_path)
        assert first.map(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
        assert first.stats == {"tasks_from_journal": 2,
                               "tasks_executed": 2}
        second = _executor(tmp_path)
        assert second.map(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
        assert second.stats == {"tasks_from_journal": 4,
                                "tasks_executed": 0}

    def test_batched_length_mismatch_raises(self, tmp_path):
        with pytest.raises(WorkerTaskError, match="chunk"):
            _executor(tmp_path).map_batched(_bad_chunk, [1, 2, 3],
                                            chunk_size=3)

    def test_quarantined_task_fails_the_map(self, tmp_path):
        with pytest.raises(WorkerTaskError, match="quarantined"):
            _executor(tmp_path).map(_always_fails, [1])
        assert load_journal(str(tmp_path / JOURNAL_NAME)) == {}

    def test_code_change_misses_every_journaled_task(self, tmp_path,
                                                     monkeypatch):
        _executor(tmp_path).map(_double, [1, 2])
        monkeypatch.setattr(resume, "source_digest", lambda: "edited")
        edited = _executor(tmp_path)
        assert edited.map(_double, [1, 2]) == [2, 4]
        assert edited.stats == {"tasks_from_journal": 0,
                                "tasks_executed": 2}


class TestJournal:
    def test_journal_tolerates_torn_tail(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        append_journal(path, "k1", {"value": 1})
        append_journal(path, "k2", {"value": 2})
        with open(path, "a") as handle:
            handle.write('{"key":"k3","val')            # SIGKILL tear
        assert load_journal(path) == {"k1": {"value": 1},
                                      "k2": {"value": 2}}

    def test_task_journal_last_write_wins(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        append_journal(path, "k1", {"value": 1})
        append_journal(path, "k2", {"value": 2})
        append_journal(path, "k1", {"value": 3})
        assert load_journal(path) == {"k1": {"value": 3},
                                      "k2": {"value": 2}}


# ------------------------------------------------------------ the CLI

#: The bench_campaign 160-trial fixture, verbatim.
FIXTURE = ["validate", "--benchmarks", "hashmap,queue",
           "--designs", "PMEM-Spec,IntelX86", "--budget", "40",
           "--val-fases", "400", "--snapshot-rungs", "16",
           "--batch", "10", "--no-shrink", "--jobs", "2",
           "--seed", "42"]

#: 4 cells x ceil(40/10) trial chunks, plus two profiling passes
#: (ladder sizing + cache seeding) of one probe per cell.
EXPECTED_TASKS = 4 * (40 // 10) + 2 * 4

#: Journaled outcomes to wait for before pulling the plug.
KILL_AFTER_TASKS = 6


def _resumable(directory: str, *extra: str) -> list:
    return FIXTURE + ["--resume", directory, "--snapshot-dir",
                      os.path.join(directory, "snapshots"), *extra]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli(argv: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro.harness", *argv],
                          env=_env(), capture_output=True, text=True,
                          timeout=300)


def _fingerprint(report_path: str) -> str:
    with open(report_path) as handle:
        return report_fingerprint(json.load(handle))


def _count_lines(path: str) -> int:
    try:
        with open(path) as handle:
            return sum(1 for line in handle if line.strip())
    except OSError:
        return 0


def _stop_after(directory: str, tasks: int, signum: int) -> int:
    """Start a resumable run, send ``signum`` once ``tasks`` outcomes
    are journaled; returns its exit code."""
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.harness", *_resumable(directory)],
        env=_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    journal = os.path.join(directory, JOURNAL_NAME)
    deadline = time.monotonic() + 120.0
    while _count_lines(journal) < tasks:
        if victim.poll() is not None:
            pytest.fail("victim finished before it could be stopped")
        if time.monotonic() > deadline:
            victim.kill()
            pytest.fail("victim never journaled enough tasks")
        time.sleep(0.02)
    victim.send_signal(signum)
    return victim.wait(timeout=60)


def _assert_resumes(directory: str, reference: str) -> None:
    journaled = len(load_journal(os.path.join(directory, JOURNAL_NAME)))
    assert 0 < journaled < EXPECTED_TASKS, (
        f"stop landed outside the window ({journaled} of "
        f"{EXPECTED_TASKS} tasks journaled)")
    report = os.path.join(directory, "report.json")
    done = _cli(_resumable(directory, "--report-out", report))
    assert done.returncode == 0, done.stderr
    # Only the missing work re-simulated, attributed exactly.
    assert (f"{journaled} tasks from the journal, "
            f"{EXPECTED_TASKS - journaled} executed") in done.stdout
    assert _fingerprint(report) == reference


@pytest.fixture(scope="module")
def reference_fingerprint(tmp_path_factory):
    """An uninterrupted run without a journal: the ground truth."""
    root = tmp_path_factory.mktemp("reference")
    report = str(root / "report.json")
    done = _cli(FIXTURE + ["--snapshot-dir", str(root / "snapshots"),
                           "--report-out", report])
    assert done.returncode == 0, done.stderr
    return _fingerprint(report)


def test_kill_mid_campaign_then_resume_byte_identical(
        tmp_path, reference_fingerprint):
    directory = str(tmp_path / "run")
    _stop_after(directory, KILL_AFTER_TASKS, signal.SIGKILL)
    _assert_resumes(directory, reference_fingerprint)


def test_interrupt_is_resumable(tmp_path, reference_fingerprint):
    directory = str(tmp_path / "run")
    assert _stop_after(directory, 3, signal.SIGTERM) == \
        128 + signal.SIGTERM
    _assert_resumes(directory, reference_fingerprint)


def test_campaign_done_then_rerun_replays(tmp_path, capsys):
    argv = ["validate", "--resume", str(tmp_path / "run"),
            "--snapshot-dir", str(tmp_path / "snapshots"),
            "--benchmarks", "hashmap", "--designs", "PMEM-Spec",
            "--budget", "4", "--val-fases", "4", "--snapshot-rungs", "4",
            "--batch", "2", "--no-shrink"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "0 tasks from the journal, 2 executed" in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "2 tasks from the journal, 0 executed" in second
    printed = re.compile(r"report fingerprint (\w+)")
    assert printed.search(first).group(1) == \
        printed.search(second).group(1)


def test_code_change_misses_journaled_campaign_tasks(tmp_path, capsys,
                                                    monkeypatch):
    """A campaign's journaled trial chunks are served only to the code
    that wrote them: after an edit, the rerun simulates every task and
    still prints the same report fingerprint."""
    argv = ["validate", "--resume", str(tmp_path / "run"),
            "--snapshot-dir", str(tmp_path / "snapshots"),
            "--benchmarks", "hashmap", "--designs", "PMEM-Spec",
            "--budget", "4", "--val-fases", "4", "--snapshot-rungs", "4",
            "--batch", "2", "--no-shrink"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "0 tasks from the journal, 2 executed" in first
    monkeypatch.setattr(resume, "source_digest", lambda: "edited")
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "0 tasks from the journal, 2 executed" in second
    printed = re.compile(r"report fingerprint (\w+)")
    assert printed.search(first).group(1) == \
        printed.search(second).group(1)


def test_resume_with_litmus_is_a_user_error(tmp_path):
    assert main(["validate", "--litmus", "--resume", str(tmp_path)]) == 2
