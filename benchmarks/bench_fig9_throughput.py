"""Figure 9: throughput of all four designs on the 8-core system,
normalised to the IntelX86 epoch baseline.

Paper shape this bench checks:
* PMEM-Spec outperforms the baseline overall (paper: 1.27x geomean) and
  outperforms HOPS (paper: 10.6% margin) -- the headline "strict can
  trump relaxed" claim;
* HOPS lands above the baseline (paper: ~1.15x);
* DPO lands at or below the baseline;
* short-FASE benchmarks (queue, hashmap) show little or no PMEM-Spec
  win, the long-transaction ones show the big wins (§8.2.1).
"""

from repro.harness import DESIGNS, figure9, format_normalized_table
from repro.sim import geomean

SCALE = 0.5
SEED = 42


def test_figure9(benchmark, run_once, executor, golden):
    rows = run_once(benchmark,
                    lambda: figure9(n_threads=8, scale=SCALE, seed=SEED,
                                    executor=executor))
    print("\n" + format_normalized_table(
        rows, DESIGNS, "Figure 9: normalised throughput (8 cores)"))

    def gm(design):
        return geomean([rows[b][design] for b in rows])

    # Baseline normalises to 1 by construction.
    assert all(abs(rows[b]["IntelX86"] - 1.0) < 1e-9 for b in rows)
    # Headline ordering: PMEM-Spec > HOPS > baseline >= DPO.
    assert gm("PMEM-Spec") > 1.0
    assert gm("PMEM-Spec") > gm("HOPS")
    assert gm("HOPS") > 1.0
    assert gm("DPO") < 1.0
    # Short-FASE benchmarks: no large PMEM-Spec win expected (§8.2.1).
    assert rows["hashmap"]["PMEM-Spec"] < 1.15
    # Long-transaction benchmarks carry the win.
    assert rows["tpcc"]["PMEM-Spec"] > 1.1
    assert rows["rbtree"]["PMEM-Spec"] > 1.0
    # The exact table this scale and seed compute.
    golden("fig9_scale0.5", rows)
