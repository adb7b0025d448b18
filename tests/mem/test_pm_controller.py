"""Unit tests for the PM controller: queueing, policy hooks, timing order."""

from repro.config import table3_config
from repro.mem import PMController, PMCPolicy, PMDevice, PersistMessage
from repro.sim import Environment


def make_pmc(policy=None, initial=None, **overrides):
    env = Environment()
    config = table3_config(**overrides)
    device = PMDevice(initial)
    pmc = PMController(env, config, device, policy=policy)
    return env, pmc


class TestReads:
    def test_read_latency_is_device_read(self):
        env, pmc = make_pmc(initial={0x40: 7})
        results = []

        done = pmc.read_block(
            1, env.now, lambda content, at: results.append((content, at)))
        env.run()
        config = table3_config()
        assert results[0][1] == config.ns(config.pm_read_ns) == done
        assert results[0][0] == {0x40: 7}

    def test_read_snapshot_taken_at_arrival(self):
        """A persist accepted after the read's arrival must NOT be visible:
        the stale-read semantics of §5.1."""
        env, pmc = make_pmc()
        seen = []

        def late_writer():
            yield env.timeout(50)  # after read arrival (0), before done (350)
            pmc.accept_persist(PersistMessage(0, 0x40, 99), arrival=env.now)

        pmc.read_block(
            1, 0, lambda content, _done: seen.append(content.get(0x40, 0)))
        env.process(late_writer())
        env.run()
        assert seen == [0]

    def test_read_sees_earlier_persist(self):
        env, pmc = make_pmc()
        seen = []

        def writer_then_reader():
            pmc.accept_persist(PersistMessage(0, 0x40, 42), arrival=0)
            yield env.timeout(10)
            pmc.read_block(1, env.now,
                           lambda content, _done: seen.append(content[0x40]))

        env.process(writer_then_reader())
        env.run()
        assert seen == [42]

    def test_read_queue_backpressure(self):
        env, pmc = make_pmc(pmc_read_queue=2, pmc_banks=1)
        done_times = []

        for i in range(3):
            pmc.read_block(
                i, 0, lambda _content, done: done_times.append(done))
        env.run()
        read = table3_config().ns(table3_config().pm_read_ns)
        assert done_times == [read, 2 * read, 3 * read]


class TestWritebacks:
    def test_writeback_persists_by_default(self):
        env, pmc = make_pmc()
        pmc.accept_writeback(0x40, {0x40: 3, 0x48: 4}, arrival=5)
        env.run()
        assert pmc.device.read(0x40) == 3
        assert pmc.device.read(0x48) == 4

    def test_acceptance_time_is_admission(self):
        env, pmc = make_pmc()
        accept = pmc.accept_writeback(0x40, {0x40: 1}, arrival=17)
        assert accept == 17  # empty WPQ admits immediately

    def test_wpq_backpressure_delays_acceptance(self):
        env, pmc = make_pmc(pmc_write_queue=1, pmc_banks=1)
        first = pmc.accept_writeback(0x40, {0x40: 1}, arrival=0)
        second = pmc.accept_writeback(0x80, {0x80: 2}, arrival=0)
        write = table3_config().ns(table3_config().pm_write_ns)
        assert first == 0
        assert second == write


class TestPersists:
    def test_persist_updates_device_at_accept_time(self):
        env, pmc = make_pmc()
        pmc.accept_persist(PersistMessage(2, 0x80, 11), arrival=30)
        assert pmc.device.read(0x80) == 0  # not yet processed
        env.run()
        assert pmc.device.read(0x80) == 11

    def test_stats_counted(self):
        env, pmc = make_pmc()
        pmc.accept_persist(PersistMessage(0, 0x40, 1), arrival=0)
        pmc.accept_writeback(0x80, {0x80: 2}, arrival=0)
        env.run()
        assert pmc.stats["persists"] == 1
        assert pmc.stats["writebacks"] == 1


class RecordingPolicy(PMCPolicy):
    """Captures hook invocation order with timestamps."""

    def __init__(self):
        self.trace = []

    def read_delay(self, block, now):
        return 7

    def on_read(self, block, now):
        self.trace.append(("read", block, now))

    def on_writeback(self, block_addr, data, now):
        self.trace.append(("writeback", block_addr, now))

    def on_persist(self, msg, now):
        self.trace.append(("persist", msg.addr, now))


class TestPolicyDispatch:
    def test_hooks_fire_in_global_time_order(self):
        """The WriteBack-Read-Persist pattern must reach the policy in
        arrival order regardless of host call order."""
        policy = RecordingPolicy()
        env, pmc = make_pmc(policy=policy)
        # Host call order: persist first, but with the LATEST arrival.
        pmc.accept_persist(PersistMessage(0, 0x40, 1), arrival=500)
        pmc.accept_writeback(0x40, {0x40: 0}, arrival=100)
        pmc.read_block(1, 200)
        env.run()
        kinds = [entry[0] for entry in policy.trace]
        assert kinds == ["writeback", "read", "persist"]

    def test_read_delay_charged(self):
        policy = RecordingPolicy()
        env, pmc = make_pmc(policy=policy)
        done_holder = []

        pmc.read_block(1, 0, lambda _content, done: done_holder.append(done))
        env.run()
        base = table3_config().ns(table3_config().pm_read_ns)
        assert done_holder[0] == base + 7
        assert pmc.stats["read_delay_cycles"] == 7

    def test_overriding_policy_suppresses_default_persist(self):
        policy = RecordingPolicy()  # does not call device.persist_*
        env, pmc = make_pmc(policy=policy)
        pmc.accept_writeback(0x40, {0x40: 9}, arrival=0)
        env.run()
        assert pmc.device.read(0x40) == 0
