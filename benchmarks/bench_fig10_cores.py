"""Figure 10: the design comparison at higher core counts.

Paper shape: PMEM-Spec keeps beating both the baseline and HOPS at
every core count (paper margins: 18.8%/8.2% at 16, 18.2%/8.0% at 32,
17.1%/10% at 64) while DPO stays below the baseline everywhere
(§8.3.1).

Kept small so the bench suite stays minutes-scale; 64 cores runs via
`python -m repro.harness fig10 --cores 64`.
"""

from repro.harness import (
    DESIGNS,
    figure10,
    figure10_summary,
    format_normalized_table,
    format_series,
)

SCALE = 0.1
SEED = 42
CORES = (16, 32)


def test_figure10(benchmark, run_once, executor, golden):
    results = run_once(benchmark,
                       lambda: figure10(core_counts=CORES, scale=SCALE,
                                        seed=SEED, executor=executor))
    for count, rows in results.items():
        print("\n" + format_normalized_table(
            rows, DESIGNS, f"Figure 10: {count}-core system"))
    summary = figure10_summary(results)
    print("\n" + format_series(summary, "cores", "geomean",
                                "Figure 10 summary"))
    for count in CORES:
        assert summary[count]["PMEM-Spec"] > 1.0, count
        assert summary[count]["PMEM-Spec"] > summary[count]["HOPS"], count
        assert summary[count]["DPO"] < 1.0, count
    # The exact tables this scale and seed compute, per core count.
    golden("fig10_scale0.1", results)
