"""Harness chaos: one seeded campaign, every failure the harness must
absorb, one answer.

A small laddered campaign runs clean and serial for its report
fingerprint F.  Then, per chaos seed, the same campaign runs through a
two-worker pool that keeps a task journal, while

* the first trial chunk SIGKILLs its worker (``die_once``), and
* one ``os.replace`` inside the rung store raises ``OSError``;

then a seeded third of the stored rung objects are truncated or
bit-flipped, one rung index is deleted and the journal's last line is
torn, and the campaign reruns over the same store and journal, then
once more with no journal.  Every run must print F: no answer may
depend on which process served a trial or on what the store held.

Each chaotic run goes through a subprocess under a deadline (as in
tests/harness/test_pool.py), so a pool that hangs fails the test
instead of the suite."""

import errno
import glob
import os
import random

import pytest

from repro.harness.resume import JOURNAL_NAME
from repro.validation import run_campaign
from repro.validation.campaign import run_trial_batch
from tests.harness.test_pool import _run, die_once

CAMPAIGN = dict(workloads=["hashmap", "queue"],
                designs=["PMEM-Spec", "IntelX86"], fases_per_thread=40,
                budget=10, snapshot_rungs=8, batch=4)

CHAOS_RUN = """\
import functools, json, os, random, sys
from repro.harness import ParallelExecutor
from repro.snapshot import store
from repro.validation import run_campaign
from repro.validation.campaign import run_trial_batch
from tests.harness.test_chaos import CAMPAIGN, FailsOneRename, dies_once

markers, cache_dir, snapshot_dir, seed = sys.argv[1:]
store.os = FailsOneRename(os.path.join(markers, "rename"),
                          random.Random(seed).randrange(8))


class KillsFirstChunk(ParallelExecutor):
    def map_batched(self, fn, items, **kwargs):
        assert fn is run_trial_batch
        return super().map_batched(
            functools.partial(dies_once, os.path.join(markers, "kill")),
            items, **kwargs)


executor = KillsFirstChunk(jobs=2, cache_dir=cache_dir or None)
report = run_campaign(executor=executor, snapshot_dir=snapshot_dir,
                      **CAMPAIGN)
print(json.dumps({"fingerprint": report.fingerprint(),
                  "from_journal": executor.stats["tasks_from_journal"]}))
"""


def dies_once(marker, chunk):
    """:func:`run_trial_batch` of ``chunk``, except that the first chunk
    anywhere SIGKILLs its worker.  Module-level, with only a path bound,
    so the journal can key its tasks."""
    return die_once(marker, run_trial_batch, chunk)


class FailsOneRename:
    """The ``os`` module as the rung store sees it, except that one
    ``os.replace`` raises ``OSError``: the first call past ``skip`` in
    a process, in whichever process gets there first (it claims
    ``marker``), so exactly one rename fails across the pool."""

    def __init__(self, marker: str, skip: int):
        self.marker = marker
        self.skip = skip
        self.calls = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def replace(self, src, dst):
        self.calls += 1
        if self.calls > self.skip:
            try:
                os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                raise OSError(errno.EIO, "injected rename failure", dst)
        os.replace(src, dst)


def damage(snapshot_dir: str, journal: str, rng: random.Random) -> None:
    """Truncate or bit-flip a third of the rung objects, delete one
    rung index and tear the journal's last line."""
    objects = sorted(glob.glob(os.path.join(snapshot_dir, "objects", "*",
                                            "*.snap")))
    assert len(objects) >= 3, "the chaos run stored too few rungs"
    for path in rng.sample(objects, len(objects) // 3):
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        if rng.random() < 0.5:
            blob = blob[:len(blob) // 2]
        else:
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
    os.unlink(rng.choice(sorted(glob.glob(
        os.path.join(snapshot_dir, "index", "*.json")))))
    with open(journal, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    lines[-1] = lines[-1][:len(lines[-1]) // 2]
    with open(journal, "wb") as handle:
        handle.write(b"".join(lines))


@pytest.fixture(scope="module")
def clean_fingerprint(tmp_path_factory):
    snapshot_dir = tmp_path_factory.mktemp("clean")
    return run_campaign(snapshot_dir=str(snapshot_dir),
                        **CAMPAIGN).fingerprint()


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_every_absorbed_failure_gives_the_clean_answer(
        seed, clean_fingerprint, tmp_path):
    markers, cache = tmp_path / "markers", tmp_path / "cache"
    snapshots = tmp_path / "snapshots"
    markers.mkdir()

    def campaign(cache_dir):
        return _run(CHAOS_RUN, str(markers), cache_dir, str(snapshots),
                    str(seed))

    chaos = campaign(str(cache))
    assert (markers / "kill").exists(), "no trial chunk ran in a worker"
    assert (markers / "rename").exists(), "no store rename failed"
    assert chaos == {"fingerprint": clean_fingerprint, "from_journal": 0}

    damage(str(snapshots), str(cache / JOURNAL_NAME), random.Random(seed))
    resumed = campaign(str(cache))
    assert resumed["fingerprint"] == clean_fingerprint
    assert resumed["from_journal"] > 0

    assert campaign("") == {"fingerprint": clean_fingerprint,
                            "from_journal": 0}
