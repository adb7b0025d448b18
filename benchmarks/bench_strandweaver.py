"""Extension: the five-design comparison including StrandWeaver (§9).

Paper narrative this bench checks: StrandWeaver (strand persistency)
beats HOPS by overlapping independent strands, and PMEM-Spec stays at
least competitive with both at far lower hardware cost (no persist
buffers, no coherence changes) and one annotation per FASE.
"""

from repro.harness import figure9, format_normalized_table
from repro.sim import geomean

DESIGNS = ("IntelX86", "DPO", "HOPS", "StrandWeaver", "PMEM-Spec")
BENCHES = ("queue", "rbtree", "tatp", "tpcc", "memcached")
SCALE = 0.4
SEED = 42


def test_five_design_comparison(benchmark, run_once, executor, golden):
    rows = run_once(benchmark,
                    lambda: figure9(n_threads=4, scale=SCALE, seed=SEED,
                                    designs=DESIGNS, benchmarks=BENCHES,
                                    executor=executor))
    print("\n" + format_normalized_table(
        rows, DESIGNS,
        "Extension: five designs incl. StrandWeaver (4 cores)"))

    def gm(design):
        return geomean([rows[b][design] for b in rows])

    assert gm("StrandWeaver") >= gm("HOPS") * 0.97
    assert gm("PMEM-Spec") >= gm("HOPS") * 0.97
    assert gm("StrandWeaver") > 1.0
    assert gm("DPO") < 1.0
    # On the multi-group FASE benchmark strands visibly parallelise.
    assert rows["tpcc"]["StrandWeaver"] >= rows["tpcc"]["HOPS"] * 0.97
    # The exact table this scale and seed compute.
    golden("strandweaver_scale0.4", rows)
