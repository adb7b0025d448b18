"""Design-choice ablations called out in DESIGN.md.

* **Lazy vs eager recovery (§6.2)** -- both converge; eager aborts can
  fire mid-FASE, cutting wasted work per abort.
* **Spec-tagging without escape analysis (§5.2.2)** -- tagging every
  critical-section store (instead of only provably-shared ones) floods
  the 4-entry speculation buffer on multi-block FASEs and costs
  throughput through all-core pauses.
* **Eviction-based vs naive fetch-based load-misspec detection
  (§5.1.3/5.1.4)** -- counted via the automaton: write-allocate fetches
  (Reads with no preceding WriteBack) must never start monitoring.
"""

from repro.config import table3_config
from repro.harness import (
    format_series,
    lazy_vs_eager_recovery,
    naive_tagging_ablation,
)
from repro.persistency import design_by_name
from repro.system import build_system
from repro.workloads import workload_by_name

SCALE = 0.5
SEED = 42


def test_lazy_vs_eager(benchmark, run_once, executor, golden):
    out = run_once(benchmark,
                   lambda: lazy_vs_eager_recovery(scale=SCALE, seed=SEED,
                                                  executor=executor))
    print("\n" + format_series(out, "mode", "outcome",
                               "Ablation: lazy vs eager recovery"))
    assert out["lazy"]["commits"] == out["eager"]["commits"]
    assert out["lazy"]["store_misspec"] > 0
    assert out["eager"]["store_misspec"] > 0
    golden("ablation_lazy_eager_scale0.5", out)


def test_naive_tagging_cost(benchmark, run_once, executor, golden):
    out = run_once(benchmark,
                   lambda: naive_tagging_ablation(scale=SCALE, seed=SEED,
                                                  executor=executor))
    print("\n" + format_series(
        {name: {"slowdown": row["slowdown"],
                "naive_overflows": row["naive_overflows"]}
         for name, row in out.items()},
        "benchmark", "escape-analysis / naive",
        "Ablation: naive spec-tagging"))
    # Multi-block FASEs (rbtree, tpcc) must show buffer pressure when
    # every critical-section store is tagged.
    assert out["rbtree"]["naive_overflows"] > 0
    assert out["tpcc"]["naive_overflows"] > 0
    # Escape analysis never loses.
    for row in out.values():
        assert row["slowdown"] >= 0.98
    golden("ablation_naive_tagging_scale0.5", out)


def test_write_allocate_fetches_never_monitored():
    """Figure 4/6b: store-miss fetches are Reads at the PMC; the
    eviction-based scheme must not treat them as speculation."""
    workload = workload_by_name("tpcc", seed=SEED)
    program = workload.build(4, 20)
    system = build_system(program, design_by_name("PMEM-Spec"),
                          table3_config(n_cores=4))
    result = system.run()
    assert result.stats["hierarchy"]["store_pm_fetches"] > 0
    assert result.load_misspeculations == 0
    # Monitoring only ever starts on LLC writebacks.
    spec_stats = result.stats["spec_buffer"]
    assert spec_stats.get("allocations", 0) <= (
        spec_stats.get("in_writeback", 0)
        + spec_stats.get("in_persist", 0))


def test_undo_vs_redo(benchmark, run_once, executor, golden):
    """Redo logging removes every intra-FASE ordering point on the
    FIFO-channel designs; on HOPS (whose undo lowering pays an ofence
    per log group) it should never lose, and commit-time replay costs
    it some extra stores."""
    from repro.harness import undo_vs_redo_ablation
    out = run_once(benchmark,
                   lambda: undo_vs_redo_ablation(scale=SCALE, seed=SEED,
                                                 executor=executor))
    print("\n" + format_series(
        {name: {key: value for key, value in row.items()
                if key.endswith("speedup")}
         for name, row in out.items()},
        "benchmark", "redo/undo", "Ablation: undo vs redo logging"))
    for row in out.values():
        assert 0.6 < row["PMEM-Spec_redo_speedup"] < 1.8
        assert 0.6 < row["HOPS_redo_speedup"] < 1.8
    golden("ablation_undo_redo_scale0.5", out)
