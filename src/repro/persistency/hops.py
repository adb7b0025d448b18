"""HOPS (Nalli et al., ASPLOS'17): the epoch-persistency baseline with
custom light-weight fences (§8.1).

* Every PM store enters a per-core **persist buffer** (alongside the
  regular cache write) and drains to the PMC in FIFO -- hence epoch --
  order in the background.
* ``ofence`` marks an epoch boundary asynchronously: it never stalls.
* ``dfence`` is the durability fence: it stalls until this core's
  persist buffer has fully drained into the ADR domain.
* The PMC holds a **bloom filter** of addresses still in persist
  buffers; every PM load pays a lookup and is postponed on a (possibly
  false-positive) conflict -- the §8.2.2 cost that hurts HOPS on the
  load-heavy Mnemosyne benchmarks.
* An extra bit rides the L1<->LLC bus for the sticky-M state, adding a
  cycle of bus latency.

LLC dirty writebacks are dropped; the persist buffers carry the data.
"""

from __future__ import annotations

from typing import Dict, List

from ..mem import PMCPolicy
from ..sim import CapacityQueue
from .base import Design, PersistLog, drain_origins
from .dpo import DropWritebacksPolicy


#: Hash ``i`` of a key is its 64-bit multiplicative hash shifted right
#: by ``16 * i``, modulo the filter's bits.
_HASH = 0x9E3779B97F4A7C15
_MASK64 = 2 ** 64 - 1


class CountingBloom:
    """A counting bloom filter supporting insert/remove/query."""

    def __init__(self, bits: int, hashes: int):
        if bits < 8 or hashes < 1:
            raise ValueError("bloom filter too small")
        self.bits = bits
        self.hashes = hashes
        self._counters = [0] * bits
        self.inserts = 0
        # The shifts are made once, so a lookup walks a tuple: no
        # generator per insert, remove or query.
        self._shifts = tuple(i * 16 for i in range(hashes))

    def insert(self, key: int) -> None:
        self.inserts += 1
        h = key * _HASH & _MASK64
        for shift in self._shifts:
            self._counters[(h >> shift) % self.bits] += 1

    def remove(self, key: int) -> None:
        h = key * _HASH & _MASK64
        for shift in self._shifts:
            slot = (h >> shift) % self.bits
            if self._counters[slot] > 0:
                self._counters[slot] -= 1

    def query(self, key: int) -> bool:
        h = key * _HASH & _MASK64
        for shift in self._shifts:
            if not self._counters[(h >> shift) % self.bits]:
                return False
        return True

    def capture_state(self) -> dict:
        return {"counters": list(self._counters),
                "inserts": self.inserts}

    def restore_state(self, state: dict) -> None:
        self._counters = list(state["counters"])
        self.inserts = state["inserts"]


class HOPSPMCPolicy(DropWritebacksPolicy):
    """Bloom-filter lookup on every PM read (§8.2.2)."""

    def __init__(self, bloom: CountingBloom, lookup_cycles: int,
                 conflict_delay: int):
        self.bloom = bloom
        self.lookup_cycles = lookup_cycles
        self.conflict_delay = conflict_delay
        self.lookups = 0
        self.conflicts = 0

    def read_delay(self, block: int, now: int) -> int:
        self.lookups += 1
        delay = self.lookup_cycles
        if self.bloom.query(block):
            self.conflicts += 1
            delay += self.conflict_delay
        return delay

    def capture_state(self) -> dict:
        # The bloom filter itself is captured by the HOPS design (it is
        # shared across multi-PMC policies).
        return {"lookups": self.lookups, "conflicts": self.conflicts}

    def restore_state(self, state: dict) -> None:
        self.lookups = state["lookups"]
        self.conflicts = state["conflicts"]


class _BloomClear:
    """A persist-buffer line leaving the bloom filter as it drains."""

    __slots__ = ("bloom", "block")

    def __init__(self, bloom: CountingBloom, block: int):
        self.bloom = bloom
        self.block = block

    def __call__(self) -> None:
        self.bloom.remove(self.block)


class HOPS(Design):
    """Epoch persistency with ofence/dfence and PMC-side bloom filter."""

    name = "HOPS"
    flavor = "hops"
    drops_llc_writebacks = True

    def bind(self, system) -> None:
        super().bind(system)
        config = system.config
        # §8.1/§8.2: the persist-buffer -> PMC path is "the persist path"
        # whose latency Figure 12 sweeps (20 ns in the main experiments).
        drain = (config.ns(config.persist_path_ns)
                 + max(1, config.ns(config.ring_slot_ns)))
        self._buffers: List[CapacityQueue] = [
            CapacityQueue(capacity=config.hops_persist_buffer_entries,
                          drain_latency=drain, width=1,
                          name=f"hops.pb[{i}]")
            for i in range(config.n_cores)]
        # Persist-buffer entries are cache lines: stores to a block whose
        # entry has not drained yet coalesce into it.
        self._open_blocks: List[Dict[int, int]] = [
            {} for _ in range(config.n_cores)]
        # Epoch (FIFO) durability clamp: coalescing into an earlier
        # pending line must not make a later store durable before stores
        # buffered ahead of it -- buffered *epoch* persistency orders
        # persists across epoch boundaries, and the undo-log protocol
        # (entry durable before its data) depends on it.  Found by the
        # RBTree/HOPS crash sweep.
        self._fifo_drain: List[int] = [0] * config.n_cores
        self.bloom = CountingBloom(config.hops_bloom_bits,
                                   config.hops_bloom_hashes)
        self._lookup_cycles = config.ns(config.hops_bloom_lookup_ns)
        self._conflict_delay = config.ns(
            config.extra.get("hops_conflict_delay_ns", 30.0))
        self._log = PersistLog(system.env, system.device)
        self._origins = drain_origins(config.n_cores)
        self._sticky_extra = config.ns(config.hops_sticky_bus_extra_ns)

    def build_pmc_policy(self, index: int = 0) -> PMCPolicy:
        # bind() runs before the system installs the policy; multi-PMC
        # systems share one bloom filter (it tracks per-core buffers).
        return HOPSPMCPolicy(self.bloom, self._lookup_cycles,
                             self._conflict_delay)

    @property
    def bus_extra_cycles(self) -> int:
        return self._sticky_extra

    # -------------------------------------------------------------- stores

    def store(self, core_id: int, addr: int, value: int, now: int,
              to_pm: bool = True, kind: str = "data",
              shared: bool = True) -> int:
        system = self.system
        done = system.hierarchy.store(core_id, addr, value, now)
        if to_pm:
            block = addr >> 6
            stats = self.stats
            open_blocks = self._open_blocks[core_id]
            pending = open_blocks.get(block)
            if pending is not None and now < pending:
                # Coalesce into the line already sitting in the buffer.
                stats["pb_coalesced"] += 1
                drained = pending
            else:
                buffer = self._buffers[core_id]
                accept, drained = buffer.push(now)
                if accept > now:
                    stats["pb_full_stalls"] += 1
                    done = max(done, accept)
                open_blocks[block] = drained
                if len(open_blocks) > 1024:
                    self._open_blocks[core_id] = {
                        b: d for b, d in open_blocks.items() if d > now}
                self.bloom.insert(block)
                env = system.env
                env.schedule_at(drained if drained > env.now else env.now,
                                _BloomClear(self.bloom, block))
            if drained < self._fifo_drain[core_id]:
                drained = self._fifo_drain[core_id]
            self._fifo_drain[core_id] = drained
            self._log.persist_at(addr, value, drained,
                                 self._origins[core_id])
            stats["pm_stores"] += 1
        return done

    # -------------------------------------------------------------- fences

    def ofence(self, core_id: int, now: int) -> int:
        """Epoch boundary: asynchronous, one cycle to issue (§8.1)."""
        self.stats["ofences"] += 1
        return now + 1

    def dfence(self, core_id: int, now: int) -> int:
        """Durability fence: drain this core's persist buffer."""
        core = self.system.cores[core_id]
        done = max(now, self._buffers[core_id].drain_complete_time(now),
                   self._fifo_drain[core_id],
                   core.store_queue.drain_complete_time(now))
        stats = self.stats
        stats["dfences"] += 1
        stats["dfence_stall_cycles"] += done - now
        trace = self.system.env.trace
        if trace.enabled:
            # Durability fence retirement instant: the per-core chain
            # durable-state model pins every drain accepted at or before
            # this cycle (repro.crashstates.models).
            trace.instant("order", "fence", done,
                          args={"core": core_id}, cat="order")
        return done

    def capture_state(self) -> dict:
        state = super().capture_state()
        state["buffers"] = [buffer.capture_state()
                            for buffer in self._buffers]
        state["open_blocks"] = [list(blocks.items())
                                for blocks in self._open_blocks]
        state["fifo_drain"] = list(self._fifo_drain)
        state["bloom"] = self.bloom.capture_state()
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        for buffer, sub in zip(self._buffers, state["buffers"]):
            buffer.restore_state(sub)
        self._open_blocks = [
            {block: drained for block, drained in blocks}
            for blocks in state["open_blocks"]]
        self._fifo_drain = list(state["fifo_drain"])
        self.bloom.restore_state(state["bloom"])
