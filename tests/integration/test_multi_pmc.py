"""System-level §7 tests: with multiple PM controllers, PMEM-Spec's
strict intra-thread persist order silently breaks -- a crash between the
out-of-order acceptances leaves an unrecoverable tear -- and the paper's
proposed ordered-NoC extension repairs it."""

from repro.config import table3_config
from repro.isa import Fase, PRead, Program, PWrite, ThreadProgram
from repro.persistency import design_by_name
from repro.runtime import DATA_BASE, run_recovery
from repro.system import build_system


class PairWorkloadOracle:
    """A FASE family whose invariant is `A == B`: each FASE writes the
    same fresh value to two addresses in *different* controllers (even
    and odd block).  A torn FASE that recovery cannot undo leaves
    A != B."""

    def __init__(self, fases=12):
        self.addr_a = DATA_BASE            # block even -> controller 0
        self.addr_b = DATA_BASE + 64       # block odd  -> controller 1
        self.fases = fases

    def build(self) -> Program:
        ops = []
        for index in range(self.fases):
            ops.append(Fase(index, [
                PRead(self.addr_a),
                PWrite(self.addr_a, index + 1),
                PWrite(self.addr_b, index + 1),
            ]))
        return Program("pair", [ThreadProgram(0, ops, think_cycles=50)],
                       initial_heap={self.addr_a: 0, self.addr_b: 0})

    def violations(self, image):
        a = image.get(self.addr_a, 0)
        b = image.get(self.addr_b, 0)
        if a != b:
            return [f"torn pair: A={a} B={b}"]
        return []


def crash_sweep(n_pmcs, ordered, skew=400, points=None):
    """Crash the pair workload densely; returns violation counts."""
    oracle = PairWorkloadOracle()
    total_system = build_system(
        oracle.build(), design_by_name("PMEM-Spec"),
        table3_config(n_cores=1, n_pm_controllers=n_pmcs,
                      ordered_noc=ordered))
    if n_pmcs > 1 and skew:
        total_system.pmc.set_controller_extra(1, skew)
    total = total_system.run().cycles
    points = points or range(50, total, max(1, total // 120))
    bad = 0
    for crash_cycle in points:
        oracle = PairWorkloadOracle()
        system = build_system(
            oracle.build(), design_by_name("PMEM-Spec"),
            table3_config(n_cores=1, n_pm_controllers=n_pmcs,
                          ordered_noc=ordered))
        if n_pmcs > 1 and skew:
            system.pmc.set_controller_extra(1, skew)
        system.run(until=crash_cycle)
        report = run_recovery(system.persisted_snapshot(), 1)
        bad += bool(oracle.violations(report.data_image()))
    return bad


class TestSection7:
    def test_single_controller_is_always_recoverable(self):
        assert crash_sweep(n_pmcs=1, ordered=False) == 0

    def test_two_controllers_expose_unrecoverable_tears(self):
        """The §7 limitation, made concrete: the undo entry (odd log
        block, delayed controller) can become durable after its data
        write (even block, fast controller); crashing in the window
        leaves a tear recovery cannot see."""
        assert crash_sweep(n_pmcs=2, ordered=False) > 0

    def test_ordered_noc_restores_recoverability(self):
        """The paper's future-work extension, implemented: an
        order-respecting NoC closes the window completely."""
        assert crash_sweep(n_pmcs=2, ordered=True) == 0

    def test_multi_pmc_runs_complete_normally(self):
        """Absent crashes, multi-PMC systems still execute correctly."""
        oracle = PairWorkloadOracle()
        system = build_system(
            oracle.build(), design_by_name("PMEM-Spec"),
            table3_config(n_cores=1, n_pm_controllers=2))
        result = system.run()
        assert result.fases_committed == oracle.fases
        assert oracle.violations(system.device.snapshot()) == []

    def test_detection_still_works_per_controller(self):
        """Each controller keeps its own speculation buffer; violations
        local to one controller are still caught."""
        from repro.workloads import StoreMisspecProbe
        probe = StoreMisspecProbe(seed=1)
        program = probe.build(2, 20)
        config = StoreMisspecProbe.recommended_config(2).with_overrides(
            n_pm_controllers=2, spec_buffer_entries=16)
        system = build_system(program, design_by_name("PMEM-Spec"), config)
        system.persist_path.set_core_extra(
            0, StoreMisspecProbe.slow_core_extra_cycles())
        result = system.run()
        assert result.store_misspeculations > 0
        assert result.fases_committed == 40
