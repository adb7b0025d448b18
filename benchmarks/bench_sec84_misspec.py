"""§8.4: misspeculation rates.

Paper shape: across every Table 4 benchmark under the default (Table 3)
configuration, PMEM-Spec *never* misspeculates.  A synthetic program
triggers PM load misspeculation only under an unrealistically slow
persist path (and never at the paper's 20 ns); an artificially congested
ring makes one core's persists arrive late enough to violate the
inter-thread persist order, which the spec-ID check detects.  All
detections recover: every FASE eventually commits.
"""

from repro.harness import format_misspec_table, misspeculation_rates

SCALE = 0.5
SEED = 42


def test_misspeculation_rates(benchmark, run_once, executor, golden):
    rows = run_once(benchmark,
                    lambda: misspeculation_rates(scale=SCALE, seed=SEED,
                                                 executor=executor))
    print("\n" + format_misspec_table(
        rows, "Section 8.4: misspeculation rates"))
    by_key = {(row["workload"], row["config"]): row for row in rows}

    # Zero misspeculation on every real benchmark (the paper's result).
    for (workload, config), row in by_key.items():
        if config == "table3":
            assert row["load_misspec"] == 0, workload
            assert row["store_misspec"] == 0, workload
            assert row["aborts"] == 0, workload

    # The synthetic probes trigger exactly their own violation kind...
    slow = by_key[("load_misspec_probe", "125x path")]
    assert slow["load_misspec"] > 0
    assert slow["store_misspec"] == 0
    congested = by_key[("store_misspec_probe", "congested ring")]
    assert congested["store_misspec"] > 0
    assert congested["load_misspec"] == 0

    # ...recover fully (aborted FASEs retried to commit)...
    assert slow["aborts"] > 0 and slow["commits"] > 0
    assert congested["aborts"] >= congested["store_misspec"]

    # ...and the load probe is silent at the paper's 20 ns latency.
    fast = by_key[("load_misspec_probe", "20ns path")]
    assert fast["load_misspec"] == 0
    assert fast["stale_loads"] == 0
    # The exact rows this scale and seed compute.
    golden("sec84_scale0.5", rows)
