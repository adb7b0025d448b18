"""Checks on the e2e benchmark itself (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The smoke run executes every workload at ``--tiny`` size through the
same fresh-process passes the real benchmark uses (~1 min).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import layers
import run
from workloads import WORKLOADS, digest

SPEC = run.load_spec()

ALL = set(WORKLOADS)
CAMPAIGNS = {"campaign-short", "campaign-ladder", "crash-states"}
SNAPSHOTTING = {"campaign-ladder", "crash-states"}
#: Span -> the workloads that must call it; every other workload is a
#: bypass workload for it and must call it zero times.
EXERCISED_BY = {
    "workloads.build": ALL, "compiler.lower": ALL,
    "system.assemble": ALL, "system.run": ALL,
    "snapshot.capture": SNAPSHOTTING, "snapshot.restore": SNAPSHOTTING,
    "snapshot.fingerprint": SNAPSHOTTING,
    # crash-states keeps its rungs in memory: no store at all.
    "snapshot.store_put": {"campaign-ladder"},
    "snapshot.store_get": {"campaign-ladder"},
    "validation.profile": CAMPAIGNS, "validation.trial": CAMPAIGNS,
    "validation.oracle": CAMPAIGNS, "validation.history": CAMPAIGNS,
    "validation.plan": CAMPAIGNS, "runtime.recovery": CAMPAIGNS,
    "crashstates.check_cell": {"crash-states"},
    "crashstates.enumerate": {"crash-states"},
    "crashstates.litmus": {"crash-states"},
    "harness.pool": {"campaign-short"},
}


@pytest.fixture(scope="module")
def tiny_report():
    return {name: run.measure(name, 42, SPEC, tiny=True, passes=2)
            for name in WORKLOADS}


def test_every_module_maps_to_exactly_one_layer():
    package_dir = Path(run.ROOT, "src", "repro")
    files = sorted(package_dir.rglob("*.py"))
    assert files
    for path in files:
        module = layers.module_of(str(path), str(package_dir))
        assert len(layers.layers_of(module)) == 1, module


def test_every_span_site_resolves():
    for sites in layers.SPANS.values():
        for site in sites:
            owner, attr = layers._resolve(site)
            assert callable(vars(owner)[attr]), site


def test_spec_matches_the_code():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in WORKLOADS.values()]
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"])


def test_smoke_every_named_metric_is_emitted(tiny_report):
    for name, result in tiny_report.items():
        assert result["correct"], (name, result["problems"])
        assert result["attempted"] > 0 and result["failed"] == 0
        for metric in SPEC["end_to_end"]:
            entry = result["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["median"]) and entry["median"] > 0
            assert entry["n"] == 2
        for metric in SPEC["per_layer"]:
            entry = result["per_layer"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"]), (name, metric)


def test_spans_fire_only_where_exercised(tiny_report):
    for span, exercisers in EXERCISED_BY.items():
        for name, result in tiny_report.items():
            calls = result["per_layer"][f"{span}.calls"]["value"]
            if name in exercisers:
                assert calls > 0, (span, name)
            else:
                assert calls == 0, (span, name, calls)


def test_digest_ignores_time_and_location_only():
    cell = {"trials": 3, "failures": [], "elapsed_s": 1.5,
            "params": {"snapshot_dir": "/a", "seed": 1},
            "cells": [{"timings": {"acquire_s": 0.2}, "images": 4}]}
    moved = json.loads(json.dumps(cell))
    moved["elapsed_s"] = 9.0
    moved["params"]["snapshot_dir"] = "/b"
    moved["cells"][0]["timings"]["acquire_s"] = 0.3
    assert digest(cell) == digest(moved)
    moved["cells"][0]["images"] = 5
    assert digest(cell) != digest(moved)


def test_timings_scale_by_the_runs_median_host_speed():
    passes = [{"ops": 100, "wall_s": 2.0, "setup_s": 0.2, "host_speed": s}
              for s in (0.4, 0.5, 2.0)]
    factor = hostspeed.scale(0.5)
    assert 0.5 < factor < 1
    assert run.end_to_end_samples("ref_ops_per_s", passes) == \
        pytest.approx([50 / factor] * 3)
    assert run.end_to_end_samples("setup_s", passes) == \
        pytest.approx([0.2 * factor] * 3)
    assert run.end_to_end_samples("wall_s", passes) == [2.0] * 3
    assert 0 < hostspeed.HostSpeed().sample(0.01) < math.inf


def _report(wall_median, wall_iqr, failed_passes=0, passes=7, ops=32):
    """A one-workload report; each failed pass fails all its ops."""
    return {"workloads": {"fig9-sweep": {
        "attempted": (passes + 1) * ops, "failed": failed_passes * ops,
        "correct": failed_passes == 0,
        "end_to_end": {
            "wall_s": {"median": wall_median, "iqr": wall_iqr, "unit": "s",
                       "better": "lower", "bound": 0.1}}}}}


@pytest.mark.parametrize("b, expected", [
    (_report(2.1, 0.05), 0),          # within bound
    (_report(2.5, 0.05), 1),          # 25% worse
    (_report(1.5, 0.05), 1),          # 25% better: still a disagreement
    (_report(2.5, 0.5), 0),           # IQR wider than bound: unresolved
    (_report(2.0, 0.05, 1), 1),       # 1 of 7 timed passes failed
])
def test_compare(tmp_path, b, expected):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    a_path.write_text(json.dumps(_report(2.0, 0.05)))
    b_path.write_text(json.dumps(b))
    assert run.compare(str(a_path), str(b_path)) == expected


def test_a_pass_that_raised_fails_the_ops_of_a_good_pass(tmp_path):
    runner = run.Runner("fig9-sweep", 42, tiny=True, work_root=tmp_path)
    good = {"groups": {"tpcc": [4, 0, "d1"], "rbtree": [4, 0, "d2"]},
            "problems": []}
    runner._judge(good)
    raised = {"error": "plain pass exited 1: boom"}
    runner._judge(raised)
    assert (raised["ops"], raised["failed"]) == (8, 8)
    assert (runner.attempted, runner.failed) == (16, 8)
    changed = {"groups": {"tpcc": [4, 0, "d1"], "rbtree": [4, 0, "dX"]},
               "problems": []}
    runner._judge(changed)
    assert changed["failed"] == 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(Path(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "fig9-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
