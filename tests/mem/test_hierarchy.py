"""Unit tests for the cache hierarchy: hits, misses, coherence, evictions."""

from repro.config import table3_config
from repro.mem import (CacheHierarchy, MemoryImage, PMController, PMDevice,
                       PMLoad)
from repro.sim import Environment


def make_system(initial=None, **overrides):
    env = Environment()
    config = table3_config(**overrides)
    device = PMDevice(initial)
    pmc = PMController(env, config, device)
    image = MemoryImage(initial)
    hier = CacheHierarchy(env, config, pmc, image)
    return env, config, hier


def run_load(env, hier, core, addr, now=0):
    """Drive one load to completion; returns the LoadResult (a PM miss's
    :class:`PMLoad` is filled in by then)."""
    res = hier.load(core, addr, now)
    env.run()
    return res


class TestLoadPath:
    def test_cold_load_goes_to_pm(self):
        env, config, hier = make_system({0x40: 5})
        res = run_load(env, hier, 0, 0x40)
        assert res.level == "pm"
        assert res.value == 5
        assert not res.stale
        assert res.done >= config.ns(config.pm_read_ns)

    def test_second_load_hits_l1(self):
        env, config, hier = make_system({0x40: 5})
        run_load(env, hier, 0, 0x40)
        res = hier.load(0, 0x40, 1000)
        assert not isinstance(res, PMLoad)
        assert res.level == "l1"
        assert res.value == 5
        assert res.done == 1000 + config.ns(config.l1_hit_ns)

    def test_peer_fill_hits_llc(self):
        env, config, hier = make_system({0x40: 5})
        run_load(env, hier, 0, 0x40)
        # Core 1 misses its L1 but the inclusive LLC has the block.
        res = hier.load(1, 0x40, 2000)
        assert not isinstance(res, PMLoad)
        assert res.level == "llc"
        assert res.value == 5

    def test_load_after_peer_store_uses_c2c(self):
        env, config, hier = make_system()
        hier.store(0, 0x40, 77, 0)
        res = hier.load(1, 0x40, 100)
        assert not isinstance(res, PMLoad)
        assert res.level in ("c2c", "llc")
        assert res.value == 77

    def test_unwritten_address_reads_zero(self):
        env, _config, hier = make_system()
        res = run_load(env, hier, 0, 0x9999)
        assert res.value == 0


class TestStorePath:
    def test_store_then_load_same_core(self):
        env, _config, hier = make_system()
        hier.store(0, 0x40, 9, 0)
        res = hier.load(0, 0x40, 10)
        assert not isinstance(res, PMLoad)
        assert res.value == 9

    def test_store_updates_architectural_image(self):
        env, _config, hier = make_system()
        hier.store(0, 0x40, 3, 0)
        assert hier.image.read(0x40) == 3

    def test_store_hit_latency_is_l1(self):
        env, config, hier = make_system()
        hier.store(0, 0x40, 1, 0)          # allocate
        done = hier.store(0, 0x44, 2, 100)  # now an L1 M hit
        assert done == 100 + config.ns(config.l1_hit_ns)

    def test_store_invalidates_sharers(self):
        env, _config, hier = make_system({0x40: 1})
        run_load(env, hier, 0, 0x40)
        res = hier.load(1, 0x40, 500)
        assert not isinstance(res, PMLoad)  # LLC hit
        hier.store(1, 0x40, 2, 600)
        # Core 0's copy must be gone: its next load refetches and sees 2.
        res0 = hier.load(0, 0x40, 700)
        assert res0.value == 2

    def test_store_migrates_dirty_peer_line(self):
        env, _config, hier = make_system()
        hier.store(0, 0x40, 1, 0)
        hier.store(1, 0x40, 2, 100)
        assert hier.image.read(0x40) == 2
        res = hier.load(1, 0x40, 200)
        assert res.value == 2
        # Core 0 no longer owns it.
        assert hier.stats["coherence_invalidations"] >= 1

    def test_write_allocate_fetch_counts_pm_read(self):
        env, _config, hier = make_system()
        hier.store(0, 0x40, 1, 0)
        env.run()
        assert hier.stats["store_pm_fetches"] == 1
        assert hier.pmc.stats["reads"] == 1


class TestClwb:
    def test_clwb_persists_dirty_line(self):
        env, _config, hier = make_system()
        hier.store(0, 0x40, 5, 0)
        accept = hier.clwb(0, 0x40, 100)
        env.run()
        assert hier.pmc.device.read(0x40) == 5
        assert accept > 100

    def test_clwb_clean_is_cheap(self):
        env, config, hier = make_system({0x40: 1})
        run_load(env, hier, 0, 0x40)
        done = hier.clwb(0, 0x40, 1000)
        assert done == 1000 + config.ns(config.l1_hit_ns)
        assert hier.stats["clwb_clean"] == 1

    def test_clwb_keeps_line_resident(self):
        env, config, hier = make_system()
        hier.store(0, 0x40, 5, 0)
        hier.clwb(0, 0x40, 100)
        res = hier.load(0, 0x40, 2000)
        assert res.level == "l1"
        assert res.value == 5

    def test_clwb_flushes_llc_copy_when_l1_clean(self):
        env, _config, hier = make_system()
        hier.store(0, 0x40, 5, 0)
        # Dirty data demoted to LLC via peer read (c2c merge).
        hier.load(1, 0x40, 50)
        # Invalidate both L1 copies so only the LLC holds the dirty line.
        hier.l1s[0].invalidate(1)
        hier.l1s[1].invalidate(1)
        hier.clwb(0, 0x40, 100)
        env.run()
        assert hier.pmc.device.read(0x40) == 5


class TestEvictions:
    def test_llc_dirty_eviction_reaches_pmc(self):
        env, _config, hier = make_system(l2_size_bytes=64 * 16,
                                         l2_ways=16, l1_size_bytes=64 * 4,
                                         l1_ways=4)
        # Fill one LLC set (all 16 blocks map to set 0) with dirty lines,
        # then one more to force a dirty eviction.
        for i in range(17):
            hier.store(0, i * 64, i, i * 1000)
        env.run()
        assert hier.stats["llc_dirty_writebacks"] >= 1
        assert hier.pmc.stats["writebacks"] >= 1

    def test_inclusive_back_invalidation_preserves_dirty_data(self):
        env, _config, hier = make_system(l2_size_bytes=64 * 16,
                                         l2_ways=16)
        hier.store(0, 0, 111, 0)  # dirty in L1, block 0
        # Evict block 0 from the LLC by filling its set.
        for i in range(1, 17):
            hier.store(0, i * 64, i, i * 1000)
        env.run()
        # The L1 copy was pulled back; its data must have been written back.
        assert hier.pmc.device.read(0) == 111

    def test_stale_read_detected_when_pm_behind(self):
        """If PM never receives the new value (writebacks dropped), a PM
        load observes the stale value and the hierarchy counts it."""
        from repro.mem import PMCPolicy

        class DroppingPolicy(PMCPolicy):
            def on_writeback(self, block_addr, data, now):
                pass  # silently drop, like PMEM-Spec's persist-less PMC

        env = Environment()
        config = table3_config(l2_size_bytes=64 * 16, l2_ways=16,
                               l1_size_bytes=64 * 4, l1_ways=4)
        device = PMDevice()
        pmc = PMController(env, config, device, policy=DroppingPolicy())
        image = MemoryImage()
        hier = CacheHierarchy(env, config, pmc, image)

        hier.store(0, 0, 42, 0)
        # Push block 0 out of both L1 (4 ways) and LLC (16 ways).
        for i in range(1, 18):
            hier.store(0, i * 64, i, i * 100)
        env.run()
        res = run_load(env, hier, 0, 0, now=env.now)
        assert res.level == "pm"
        assert res.value == 0          # stale: the 42 was dropped
        assert res.stale
        assert hier.stats["stale_reads"] == 1
