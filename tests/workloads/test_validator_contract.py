"""The validator contract: a workload's ``validate_recovered`` reads only
its own data words.

Judges hand a validator the full recovered image, log region included,
instead of a copy with the log words stripped (``data_image``).  That
is sound only while every validator returns the same messages on both;
these tests check it on every image the pinned default campaigns judge,
and on corrupted images of every workload whose words all hold values
the program wrote.
"""

from collections import Counter
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import DESIGNS
from repro.runtime import build_crash_system, run_recovery
from repro.runtime.heap import LOG_BASE, LOG_REGION_BYTES, log_region_base
from repro.validation import campaign
from repro.validation.campaign import run_campaign
from repro.workloads import BENCHMARKS

#: ``validate``'s default workloads, as tests/validation/test_pinned.py
#: pins them.
DEFAULT_WORKLOADS = ["array_swaps", "queue", "hashmap", "rbtree"]

N_THREADS = 2
#: Cuts per run the corrupted images start from.
CUTS = 4


def test_validators_agree_on_every_image_the_pinned_grids_judge(
        monkeypatch):
    reports = []
    real_recovery = campaign.run_recovery

    def recovery(*args, **kwargs):
        report = real_recovery(*args, **kwargs)
        reports.append(report)
        return report

    checked = Counter()
    mismatches = []

    def checking(original):
        def validate(self, image):
            # The judge validates the image recovery just returned.
            report = reports.pop()
            assert image is report.image
            verdict = original(self, image)
            if verdict != original(self, report.data_image()):
                mismatches.append((self.name, verdict))
            checked[self.name] += 1
            return verdict
        return validate

    monkeypatch.setattr(campaign, "run_recovery", recovery)
    for name in DEFAULT_WORKLOADS:
        workload_cls = BENCHMARKS[name]
        monkeypatch.setattr(workload_cls, "validate_recovered",
                            checking(workload_cls.validate_recovered))
    for fault in ("power-cut", "torn-log"):
        run_campaign(DEFAULT_WORKLOADS, list(DESIGNS), fault=fault,
                     budget=25, seed=42)
    assert not reports
    assert set(checked) == set(DEFAULT_WORKLOADS)
    assert not mismatches


@lru_cache(maxsize=None)
def _persisted_images(name):
    """``(workload, images)``: the persisted image at ``CUTS`` evenly
    spaced cuts of one small PMEM-Spec run of ``name``."""
    workload, system = build_crash_system(BENCHMARKS[name], "PMEM-Spec",
                                          N_THREADS, 6, 42)
    total = system.run().cycles
    program = system.program
    _, system = build_crash_system(BENCHMARKS[name], "PMEM-Spec",
                                   N_THREADS, 6, 42,
                                   prebuilt=(workload, program))
    done = system.launch()
    images = []
    for cut in range(1, CUTS + 1):
        system.advance(until=total * cut // (CUTS + 1), stop_event=done)
        images.append(system.persisted_snapshot())
    system.env.abandon(done)
    return workload, images


#: (kind, index, index): ``swap`` exchanges two data words of one cache
#: block (a torn undo entry can write one word's value to another),
#: ``drop`` loses any word, ``torn`` drops the newest words of one
#: thread's log region.
corruptions = st.lists(st.tuples(
    st.sampled_from(("swap", "drop", "torn")),
    st.integers(min_value=0, max_value=1 << 20),
    st.integers(min_value=0, max_value=1 << 20)), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(BENCHMARKS)),
       st.integers(min_value=0, max_value=CUTS - 1), corruptions)
def test_validators_ignore_log_words_on_corrupted_images(name, cut, edits):
    workload, images = _persisted_images(name)
    image = dict(images[cut])
    for kind, i, j in edits:
        if kind == "swap":
            data = sorted(addr for addr in image if addr < LOG_BASE)
            a = data[i % len(data)]
            mates = [addr for addr in data if addr >> 6 == a >> 6]
            b = mates[j % len(mates)]
            image[a], image[b] = image[b], image[a]
        elif kind == "drop":
            image.pop(sorted(image)[i % len(image)])
        else:
            base = log_region_base(i % N_THREADS)
            region = sorted(addr for addr in image
                            if base <= addr < base + LOG_REGION_BYTES)
            for addr in region[len(region) - 1 - j % 4:]:
                del image[addr]
    report = run_recovery(image, N_THREADS)
    assert workload.validate_recovered(report.image) == \
        workload.validate_recovered(report.data_image())
