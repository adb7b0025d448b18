"""Unit tests for the multi-PM-controller complex (§7)."""

import pytest

from repro.config import table3_config
from repro.mem import PMDevice, PersistMessage
from repro.mem.pm_complex import PMCComplex
from repro.sim import Environment


def make_complex(n=2, ordered=False, **overrides):
    env = Environment()
    config = table3_config(n_pm_controllers=n, ordered_noc=ordered,
                           **overrides)
    device = PMDevice()
    complex_ = PMCComplex(env, config, device)
    return env, complex_


class TestRouting:
    def test_blocks_interleave(self):
        _env, pmc = make_complex(n=2)
        assert pmc.route(0) == 0
        assert pmc.route(1) == 1
        assert pmc.route(2) == 0

    def test_single_controller_routes_everything_to_zero(self):
        _env, pmc = make_complex(n=1)
        assert pmc.route(12345) == 0

    def test_policy_count_must_match(self):
        from repro.mem import PMCPolicy
        env = Environment()
        config = table3_config(n_pm_controllers=2)
        with pytest.raises(ValueError):
            PMCComplex(env, config, PMDevice(), policies=[PMCPolicy()])

    def test_zero_controllers_rejected(self):
        with pytest.raises(ValueError):
            table3_config(n_pm_controllers=0)


class TestOrderingHazard:
    def persist(self, pmc, core, block, value, arrival):
        return pmc.accept_persist(
            PersistMessage(core, block * 64, value), arrival)

    def test_cross_pmc_reordering_without_ordered_noc(self):
        """§7: a core's stores to different controllers can become
        durable out of program order."""
        _env, pmc = make_complex(n=2, ordered=False)
        pmc.set_controller_extra(0, 500)   # even blocks delayed
        first = self.persist(pmc, core=0, block=0, value=1, arrival=10)
        second = self.persist(pmc, core=0, block=1, value=2, arrival=20)
        assert second < first               # the hazard
        assert pmc.stats["cross_pmc_reorderings"] >= 1

    def test_ordered_noc_restores_program_order(self):
        """The paper's future-work fix: the NoC respects store order."""
        _env, pmc = make_complex(n=2, ordered=True)
        pmc.set_controller_extra(0, 500)
        first = self.persist(pmc, core=0, block=0, value=1, arrival=10)
        second = self.persist(pmc, core=0, block=1, value=2, arrival=20)
        assert second >= first
        assert pmc.stats["noc_order_clamps"] >= 1
        assert pmc.stats.as_dict().get("cross_pmc_reorderings", 0) == 0

    def test_single_controller_never_reorders(self):
        _env, pmc = make_complex(n=1)
        first = self.persist(pmc, 0, 0, 1, arrival=10)
        second = self.persist(pmc, 0, 1, 2, arrival=20)
        assert second >= first

    def test_other_cores_unaffected_by_clamp(self):
        _env, pmc = make_complex(n=2, ordered=True)
        pmc.set_controller_extra(0, 500)
        self.persist(pmc, core=0, block=0, value=1, arrival=10)
        other = self.persist(pmc, core=1, block=1, value=2, arrival=20)
        assert other < 500  # core 1 has no earlier delayed store


class TestComplexAPI:
    def test_reads_and_writebacks_route(self):
        env, pmc = make_complex(n=2)
        pmc.device.persist_store(64, 7, 0)
        results = []

        pmc.read_block(1, 0, lambda content, _done: results.append(content))
        env.run()
        assert results[0] == {64: 7}
        pmc.accept_writeback(128, {128: 9}, arrival=env.now)
        env.run()
        assert pmc.device.read(128) == 9

    def test_merged_stats(self):
        env, pmc = make_complex(n=2)
        pmc.accept_persist(PersistMessage(0, 0, 1), arrival=0)
        pmc.accept_persist(PersistMessage(0, 64, 2), arrival=0)
        env.run()
        assert pmc.stats["persists"] == 2

    def test_extra_latency_validation(self):
        _env, pmc = make_complex(n=2)
        with pytest.raises(ValueError):
            pmc.set_controller_extra(0, -1)
