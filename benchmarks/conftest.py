"""Shared benchmark settings.

Each benchmark regenerates one of the paper's tables/figures at a
reduced scale (the full-scale versions run via ``python -m
repro.harness``).  Simulation runs are seconds long, so every bench
uses ``benchmark.pedantic`` with one round -- the timing shown is the
cost of regenerating the figure, and the assertions in each bench check
the figure's qualitative *shape* against the paper.

Figure-level benches share one :class:`repro.harness.ParallelExecutor`
via the ``executor`` fixture: ``REPRO_BENCH_JOBS`` picks the worker
count (default: all cores) and ``REPRO_BENCH_CACHE_DIR`` opts into the
per-spec result cache (off by default, so timings stay honest).

Simulation is deterministic, so the table each bench asserts shapes on
is pinned too: the ``golden`` fixture compares it, rounded to 9
decimals, with ``goldens/<name>.json``.  A golden file is that table as
the bench computes it (``json.dump(rounded, indent=1,
sort_keys=True)``); any change to one must be justified in CHANGES.md.
"""

import json
import os
from pathlib import Path

import pytest

from repro.harness import ParallelExecutor


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def run_once():
    return once


GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def rounded(table):
    """``table`` (ratios and counts nested in dicts and lists) with every
    float rounded to 9 decimals, every key a string and every tuple a
    list, as its JSON golden holds it."""
    if isinstance(table, dict):
        return {str(key): rounded(value) for key, value in table.items()}
    if isinstance(table, (list, tuple)):
        return [rounded(item) for item in table]
    if isinstance(table, float):
        return round(table, 9)
    return table


@pytest.fixture
def golden():
    """``golden(name, table)`` asserts ``rounded(table)`` equals the
    pinned ``goldens/<name>.json``."""
    def check(name, table):
        with open(GOLDEN_DIR / f"{name}.json") as handle:
            expected = json.load(handle)
        assert rounded(table) == expected, f"{name} moved off its golden"
    return check


@pytest.fixture
def executor():
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or None
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR") or None
    return ParallelExecutor(jobs=jobs, cache_dir=cache_dir)
