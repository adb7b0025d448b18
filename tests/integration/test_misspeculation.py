"""End-to-end misspeculation tests (§8.4): detection fires exactly when
it should, the OS relays it, and recovery converges to a correct state."""

from repro.persistency import design_by_name
from repro.system import build_system
from repro.workloads import LoadMisspecProbe, StoreMisspecProbe


def run_load_probe(slow_path, fases=10, recovery_mode="lazy"):
    probe = LoadMisspecProbe(seed=1)
    config = LoadMisspecProbe.recommended_config(2, slow_path=slow_path)
    program = probe.build(2, fases)
    system = build_system(program, design_by_name("PMEM-Spec"), config,
                          recovery_mode=recovery_mode)
    return probe, system, system.run()


def run_store_probe(extra=None, fases=20, recovery_mode="lazy"):
    probe = StoreMisspecProbe(seed=1)
    config = StoreMisspecProbe.recommended_config(2)
    program = probe.build(2, fases)
    system = build_system(program, design_by_name("PMEM-Spec"), config,
                          recovery_mode=recovery_mode)
    if extra is None:
        extra = StoreMisspecProbe.slow_core_extra_cycles()
    if extra:
        system.persist_path.set_core_extra(0, extra)
    return probe, system, system.run()


class TestLoadMisspeculation:
    def test_slow_path_triggers_detection(self):
        _probe, _system, result = run_load_probe(slow_path=True)
        assert result.load_misspeculations > 0
        assert result.stale_loads > 0

    def test_paper_latency_never_misspeculates(self):
        """§8.4: at 20 ns (shorter than the regular path) load
        misspeculation never occurs."""
        _probe, _system, result = run_load_probe(slow_path=False)
        assert result.load_misspeculations == 0
        assert result.stale_loads == 0

    def test_recovery_converges_all_fases_commit(self):
        probe, _system, result = run_load_probe(slow_path=True)
        assert result.fases_committed == 20
        assert result.fases_aborted > 0

    def test_interrupt_path_relays_to_runtime(self):
        """HW detect -> OS interrupt -> reverse map -> runtime handler."""
        _probe, system, result = run_load_probe(slow_path=True)
        interrupts = result.stats["interrupts"]
        assert interrupts["relayed_interrupts"] == result.misspeculations
        assert interrupts["interrupts_load"] == result.load_misspeculations
        assert len(system.runtime.misspec_events) == result.misspeculations
        assert system.interrupts.designated_space  # HW wrote the address

    def test_final_state_consistent_after_recovery(self):
        probe, system, _result = run_load_probe(slow_path=True)
        assert probe.validate_recovered(system.image.snapshot()) == []


class TestStoreMisspeculation:
    def test_congested_ring_triggers_detection(self):
        _probe, _system, result = run_store_probe()
        assert result.store_misspeculations > 0

    def test_symmetric_ring_is_clean(self):
        _probe, _system, result = run_store_probe(extra=0)
        assert result.store_misspeculations == 0
        assert result.fases_aborted == 0

    def test_conservative_rollback_flags_all_in_fase_threads(self):
        """§6.2: hardware cannot attribute blame, so every in-FASE thread
        rolls back -- aborts exceed detections."""
        _probe, _system, result = run_store_probe()
        assert result.fases_aborted >= result.store_misspeculations

    def test_all_fases_commit_after_retries(self):
        _probe, _system, result = run_store_probe()
        assert result.fases_committed == 40

    def test_shared_word_survives(self):
        probe, system, _result = run_store_probe()
        assert probe.validate_recovered(system.image.snapshot()) == []


class TestEagerRecovery:
    def test_eager_mode_also_converges(self):
        _probe, _system, result = run_store_probe(recovery_mode="eager")
        assert result.fases_committed == 40
        assert result.store_misspeculations > 0

    def test_eager_aborts_can_fire_mid_fase(self):
        _probe, system, result = run_store_probe(recovery_mode="eager",
                                                 fases=40)
        core_stats = result.stats["cores"]
        eager = sum(stats.get("eager_aborts", 0)
                    for stats in core_stats.values())
        lazy = sum(stats.get("lazy_aborts", 0)
                   for stats in core_stats.values())
        assert eager + lazy == result.fases_aborted
        # Every abort is taken mid-FASE, where the interrupt lands: none
        # waits for the commit-point check lazy mode would use.
        assert eager > 0 and lazy == 0


class TestVirtualPowerFailureEquivalence:
    """§4.4: misspeculation recovery uses the same machinery as real
    power failure -- a crash immediately after heavy misspeculation
    still recovers to a consistent state."""

    def test_crash_during_misspec_storm(self):
        probe = StoreMisspecProbe(seed=1)
        config = StoreMisspecProbe.recommended_config(2)
        program = probe.build(2, 20)
        system = build_system(program, design_by_name("PMEM-Spec"), config)
        system.persist_path.set_core_extra(
            0, StoreMisspecProbe.slow_core_extra_cycles())
        full = system.run()
        assert full.store_misspeculations > 0
        # Re-run and crash in the middle of the storm.
        from repro.runtime import run_recovery
        probe2 = StoreMisspecProbe(seed=1)
        program2 = probe2.build(2, 20)
        system2 = build_system(program2, design_by_name("PMEM-Spec"),
                               StoreMisspecProbe.recommended_config(2))
        system2.persist_path.set_core_extra(
            0, StoreMisspecProbe.slow_core_extra_cycles())
        system2.run(until=full.cycles // 2)
        report = run_recovery(system2.persisted_snapshot(), 2)
        assert probe2.validate_recovered(report.data_image()) == []


class TestSpecBufferPressure:
    def test_single_entry_buffer_stalls_cores(self):
        """Figure 11's mechanism: a 1-entry buffer overflows and pauses
        all cores, costing throughput."""
        from repro.config import table3_config
        from repro.workloads import Hashmap

        def run(entries):
            workload = Hashmap(seed=5)
            program = workload.build(4, 30)
            config = table3_config(n_cores=4, spec_buffer_entries=entries)
            system = build_system(program, design_by_name("PMEM-Spec"),
                                  config)
            return system.run()

        small = run(1)
        large = run(16)
        assert large.spec_buffer_overflows == 0
        assert small.spec_buffer_overflows > 0
        assert small.cycles >= large.cycles


class TestWindowSoundness:
    """§5.1.2: 'This window must be long enough to capture the
    worst-case persist-path latency.  Otherwise, the stale read problem
    goes undetected.'  Demonstrated by shrinking the window below the
    (slow) path latency."""

    def run_with_window(self, window_ns):
        probe = LoadMisspecProbe(seed=1)
        config = LoadMisspecProbe.recommended_config(
            2, slow_path=True).with_overrides(spec_window_ns=window_ns)
        program = probe.build(2, 10)
        system = build_system(program, design_by_name("PMEM-Spec"),
                              config)
        return system.run()

    def test_adequate_window_detects_every_stale_read(self):
        result = self.run_with_window(window_ns=None)  # §8.1 rule
        assert result.stale_loads > 0
        assert result.load_misspeculations >= result.stale_loads

    def test_short_window_misses_stale_reads(self):
        """A 100 ns window against a 2500 ns path: the monitored entry
        expires before the persist lands -- stale reads happen but are
        never detected (the unsound configuration the paper warns
        about)."""
        result = self.run_with_window(window_ns=100.0)
        assert result.stale_loads > 0
        assert result.load_misspeculations < result.stale_loads
