"""Unit tests for the three baseline designs and the design registry."""

from dataclasses import replace

import pytest

from repro.config import table3_config
from repro.isa import Compute, Fase, Program, PWrite, ThreadProgram
from repro.persistency import (
    DPO,
    HOPS,
    CountingBloom,
    Design,
    IntelX86Epoch,
    UnsupportedOp,
    design_by_name,
)
from repro.runtime import DATA_BASE
from repro.system import build_system


def one_write_program(n_threads=1, fases=2):
    threads = []
    fase_id = 0
    for tid in range(n_threads):
        fs = []
        for _ in range(fases):
            fs.append(Fase(fase_id, [PWrite(DATA_BASE + tid * 64, 7),
                                     Compute(10)]))
            fase_id += 1
        threads.append(ThreadProgram(tid, fs))
    return Program("p", threads, initial_heap={DATA_BASE: 0})


def run_design(name, program=None, **config_overrides):
    program = program or one_write_program()
    config = table3_config(n_cores=program.n_threads, **config_overrides)
    system = build_system(program, design_by_name(name), config)
    return system, system.run()


class TestRegistry:
    def test_all_four_designs_resolvable(self):
        for name in ("IntelX86", "DPO", "HOPS", "PMEM-Spec"):
            assert isinstance(design_by_name(name), Design)

    def test_alias(self):
        assert design_by_name("PMEMSpec").name == "PMEM-Spec"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            design_by_name("ARM")

    def test_flavors(self):
        assert design_by_name("IntelX86").flavor == "x86"
        assert design_by_name("DPO").flavor == "x86"
        assert design_by_name("HOPS").flavor == "hops"
        assert design_by_name("PMEM-Spec").flavor == "pmemspec"


class TestUnsupportedOps:
    def test_x86_has_no_custom_fences(self):
        design = IntelX86Epoch()
        with pytest.raises(UnsupportedOp):
            design.ofence(0, 0)
        with pytest.raises(UnsupportedOp):
            design.spec_barrier(0, 0)

    def test_hops_has_no_clwb(self):
        with pytest.raises(UnsupportedOp):
            HOPS().clwb(0, 0, 0)

    def test_dpo_has_no_spec_ops(self):
        with pytest.raises(UnsupportedOp):
            DPO().spec_assign(0, 0)


class TestIntelX86:
    def test_sfence_stalls_for_clwb(self):
        system, result = run_design("IntelX86")
        stats = result.stats["design"]
        assert stats["clwbs"] > 0
        assert stats["sfences"] > 0
        assert stats["sfence_stall_cycles"] > 0

    def test_writebacks_persist(self):
        system, _ = run_design("IntelX86")
        assert system.device.read(DATA_BASE) == 7


class TestDPO:
    def test_below_baseline_under_contention(self):
        program = one_write_program(n_threads=4, fases=8)
        _, base = run_design("IntelX86", program)
        program = one_write_program(n_threads=4, fases=8)
        _, dpo = run_design("DPO", program)
        assert dpo.throughput <= base.throughput * 1.05

    def test_volatile_barrier_ordering_counted(self):
        from repro.isa import LockAcquire, LockRelease
        fase = Fase(0, [LockAcquire(0), PWrite(DATA_BASE, 1),
                        LockRelease(0)])
        program = Program("p", [ThreadProgram(0, [fase])], n_locks=1)
        system, _ = run_design("DPO", program)
        assert "volatile_barrier_stalls" in system.design.stats.as_dict()


class TestHOPS:
    def test_ofence_never_stalls(self):
        system, result = run_design("HOPS")
        stats = result.stats["design"]
        assert stats["ofences"] > 0
        # ofence issues in one cycle; only dfence accumulates stall.
        assert stats["dfences"] > 0

    def test_persist_buffer_carries_data(self):
        system, _ = run_design("HOPS")
        assert system.device.read(DATA_BASE) == 7

    def test_bloom_lookup_on_every_pm_read(self):
        program = one_write_program()
        config = table3_config(n_cores=1)
        system = build_system(program, design_by_name("HOPS"), config)
        system.run()
        policy = system.pmc.policy
        assert policy.lookups == system.pmc.stats["reads"]

    def test_sticky_bus_extra_latency(self):
        system, _ = run_design("HOPS")
        base = table3_config(n_cores=1)
        assert system.hierarchy.l2_lat > base.ns(base.l2_hit_ns)


class TestCountingBloom:
    def test_insert_query_remove(self):
        bloom = CountingBloom(256, 2)
        assert not bloom.query(42)
        bloom.insert(42)
        assert bloom.query(42)
        bloom.remove(42)
        assert not bloom.query(42)

    def test_counting_handles_duplicates(self):
        bloom = CountingBloom(256, 2)
        bloom.insert(42)
        bloom.insert(42)
        bloom.remove(42)
        assert bloom.query(42)

    def test_remove_never_goes_negative(self):
        bloom = CountingBloom(256, 2)
        bloom.remove(42)
        bloom.insert(42)
        assert bloom.query(42)

    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            CountingBloom(4, 2)
        with pytest.raises(ValueError):
            CountingBloom(256, 0)


class TestPMEMSpecDesign:
    def test_every_pm_store_rides_persist_path(self):
        system, result = run_design("PMEM-Spec")
        stats = result.stats["design"]
        assert stats["persist_path_stores"] == system.pmc.stats["persists"]
        assert stats["spec_barriers"] > 0

    def test_llc_writebacks_dropped(self):
        """Force LLC dirty evictions; the dropped data must not persist
        via the regular path (only the persist path updates PM)."""
        fases = [Fase(i, [PWrite(DATA_BASE + i * 64, i + 1)])
                 for i in range(20)]
        program = Program("p", [ThreadProgram(0, fases)])
        config = table3_config(n_cores=1, l2_size_bytes=64 * 16,
                               l2_ways=16, l1_size_bytes=64 * 4, l1_ways=4)
        system = build_system(program, design_by_name("PMEM-Spec"), config)
        system.run()
        # Every value still correct in PM -- via the persist path.
        for i in range(20):
            assert system.device.read(DATA_BASE + i * 64) == i + 1
        assert system.hierarchy.stats["llc_dirty_writebacks"] > 0


class TestStrandWeaver:
    def test_registry_and_flavor(self):
        design = design_by_name("StrandWeaver")
        assert design.flavor == "strand"
        assert design.drops_llc_writebacks

    def test_data_durable_through_strand_buffers(self):
        system, _ = run_design("StrandWeaver")
        assert system.device.read(DATA_BASE) == 7

    def test_strand_ops_counted(self):
        system, result = run_design("StrandWeaver")
        stats = result.stats["design"]
        assert stats["new_strands"] > 0
        assert stats["strand_barriers"] > 0
        assert stats["joins"] > 0
        assert stats["dfences"] > 0

    def test_at_least_as_fast_as_hops_on_multi_group_fases(self):
        """Strand persistency's point: independent groups drain in
        parallel instead of FIFO (Gogte et al.; §9's comparison)."""
        from repro.workloads import TPCC

        def run(design_name):
            workload = TPCC(seed=3)
            program = workload.build(4, 15)
            config = table3_config(n_cores=4)
            system = build_system(program, design_by_name(design_name),
                                  config)
            return system.run()

        strand = run("StrandWeaver")
        hops = run("HOPS")
        assert strand.cycles <= hops.cycles * 1.02

    def test_crash_consistent(self):
        from repro.validation import TrialSpec, profile_cell, run_trial
        spec = TrialSpec("tpcc", "StrandWeaver", n_threads=2,
                         fases_per_thread=8, seed=5)
        step = profile_cell(spec).total_cycles // 5
        assert all(run_trial(replace(spec, crash_cycle=step * point))
                   ["consistent"] for point in range(1, 5))

    def test_baseline_designs_reject_strand_ops(self):
        with pytest.raises(UnsupportedOp):
            IntelX86Epoch().new_strand(0, 0)
        with pytest.raises(UnsupportedOp):
            HOPS().join_strand(0, 0)
