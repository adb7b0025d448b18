"""The cache hierarchy: per-core L1 data caches over a shared, inclusive
LLC, with MESI-lite coherence and write-back/write-allocate policy.

Timing conventions
------------------
* **Loads** return a :class:`LoadResult`; cache hits are fully
  synchronous, LLC misses hand back a :class:`PMLoad` that the PM
  controller's read fills when it completes.  The value a PM miss
  returns is the *persisted* content at arrival time -- this is how
  stale reads (PM load misspeculation, §5.1) manifest.
* **Stores** are computed synchronously: state is mutated immediately
  and a completion time is returned; the store queue in
  :mod:`repro.cpu.store_queue` turns that into back-pressure.  Automaton
  inputs (PM reads for write-allocate fetches) are still delivered to
  the PMC policy at their arrival times, in global time order.
* **Evictions** of dirty LLC lines travel the flush path to the PMC; the
  active design's policy decides whether the data persists (baselines)
  or is dropped with only monitoring started (PMEM-Spec, §4.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import SystemConfig
from ..sim import Counter, Environment
from .cache import EXCLUSIVE, MODIFIED, SHARED, Cache, EvictedLine
from .interconnect import FlushPath
from .pm_controller import PMController


class MemoryImage(dict):
    """Architectural (volatile-visible) values: what a race-free reader
    should observe.  Diffed against the PM device image by stale-read
    accounting and crash tests.

    A ``dict`` of address -> value (as :class:`~repro.sim.Counter` is a
    dict of counters), so the per-access paths read it with the C-level
    ``get(addr, 0)`` and write it by item assignment, where
    :meth:`read` and :meth:`write` would cost a Python call each.
    """

    __slots__ = ()

    def __init__(self, initial: Optional[Dict[int, int]] = None):
        super().__init__(initial or ())

    def read(self, addr: int) -> int:
        return self.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        self[addr] = value

    def snapshot(self) -> Dict[int, int]:
        return dict(self)

    def capture_state(self) -> dict:
        return {"values": list(self.items())}

    def restore_state(self, state: dict) -> None:
        self.clear()
        self.update(state["values"])


class LoadResult:
    """Outcome of a load.  A cache hit is complete when returned; a PM
    miss (``level == "pm"``) is a :class:`PMLoad`, whose ``value`` and
    ``stale`` are set when its fill lands at ``done``."""

    __slots__ = ("value", "done", "level", "stale")

    def __init__(self, value: Optional[int] = None, done: int = 0,
                 level: str = "l1", stale: bool = False):
        self.value = value
        self.done = done
        self.level = level
        self.stale = stale


class PMLoad(LoadResult):
    """A load that missed to PM: the hierarchy's fill record for it,
    and the load's result once filled.

    :meth:`PMController.read_block` calls it with the block contents
    at the read's completion; it fills the caches, then queues itself
    for the result's hop at ``done``, where a stale load is counted in
    ``sink``.  No :class:`~repro.sim.Event` is made: nobody waits on a
    miss (the core overlaps it and settles its ``done`` at lock and
    FASE boundaries).  The result hop is a push of its own because the
    queue's push count is part of every snapshot payload and of the
    pinned simulation digests.
    """

    __slots__ = ("hierarchy", "core_id", "addr", "arch_at_issue", "sink")

    def __init__(self, hierarchy: "CacheHierarchy", core_id: int,
                 addr: int, arch_at_issue: int,
                 sink: Optional[Counter]):
        self.value = None
        self.done = 0
        self.level = "pm"
        self.stale = False
        self.hierarchy = hierarchy
        self.core_id = core_id
        self.addr = addr
        self.arch_at_issue = arch_at_issue
        self.sink = sink

    def __call__(self, content: Optional[Dict[int, int]] = None,
                 done: int = 0) -> None:
        if content is None:
            # The result hop, queued by the fill below.
            sink = self.sink
            if self.stale and sink is not None:
                sink["stale_loads"] += 1
            return
        hierarchy = self.hierarchy
        core_id = self.core_id
        addr = self.addr
        block = addr >> 6
        value = content.get(addr, 0)
        # Stale means the PM returned an *old* value: different from
        # what a race-free reader expected at issue AND not simply the
        # fresh value of a store whose persist landed before this
        # read's (queue-delayed) arrival at the controller.
        stale = (value != self.arch_at_issue
                 and value != hierarchy.image.get(addr, 0))
        if stale:
            stats = hierarchy.stats
            stats["stale_reads"] += 1
        # A store may have write-allocated this block while the fetch
        # was in flight, or an earlier miss filled it; never clobber
        # newer cached data -- only add words the caches do not have
        # yet (usually none: the key-view test skips the word loop).
        # ``content`` is the read's own fresh dict: a new LLC line keeps
        # it, and only the L1 fill below takes a copy.
        existing = hierarchy.llc.lookup(block, touch=False)
        if existing is None:
            llc_victim = hierarchy.llc.insert(block, content, EXCLUSIVE)
            if llc_victim is not None:
                hierarchy._retire_llc_victim(llc_victim, done)
        elif not content.keys() <= existing.data.keys():
            for word_addr, word_value in content.items():
                existing.data.setdefault(word_addr, word_value)
        l1s = hierarchy.l1s
        l1_line = l1s[core_id].lookup(block, touch=False)
        if l1_line is None:
            owner = hierarchy._other_modified_owner(core_id, block)
            if owner is not None:
                # A store write-allocated the block (MODIFIED) while
                # the fetch was in flight: fill from the peer's data,
                # c2c-style, so the caches stay coherent even though
                # the load's returned value is the (possibly stale)
                # PM content.
                peer = l1s[owner].lookup(block, touch=False)
                data = dict(peer.data)
                l1s[owner].downgrade(block, SHARED)
                hierarchy._merge_into_llc(block, data, True, done)
                hierarchy._fill_l1(core_id, block, data, SHARED, done)
            else:
                shared = hierarchy._snoop_downgrade_peers(core_id, block)
                hierarchy._fill_l1(core_id, block, dict(content),
                                   SHARED if shared else EXCLUSIVE, done)
        elif not content.keys() <= l1_line.data.keys():
            for word_addr, word_value in content.items():
                l1_line.data.setdefault(word_addr, word_value)
        self.value = value
        self.stale = stale
        hierarchy.env.schedule_at(done, self)


class CacheHierarchy:
    """L1s + shared LLC + coherence + the flush path to the PMC."""

    def __init__(self, env: Environment, config: SystemConfig,
                 pmc: PMController, image: MemoryImage,
                 bus_extra_cycles: int = 0):
        self.env = env
        self.config = config
        self.pmc = pmc
        self.image = image
        self.flush_path = FlushPath(config)
        self.l1_lat = config.ns(config.l1_hit_ns)
        self.l2_lat = config.ns(config.l2_hit_ns) + bus_extra_cycles
        self.l1s: List[Cache] = [
            Cache(f"l1[{i}]", config.l1_sets, config.l1_ways)
            for i in range(config.n_cores)]
        self.llc = Cache("llc", config.l2_sets, config.l2_ways)
        # Sharer directory: block -> set of core ids whose L1 holds it.
        # Pure bookkeeping (states still live in the lines); it keeps
        # coherence lookups O(sharers) instead of O(n_cores), which is
        # what makes 64-core runs tractable.
        self._sharers: Dict[int, set] = {}
        # Bumped in place, ``stats[name] += 1``, on the load, store and
        # clwb paths: they run once per memory access.
        self.stats = Counter()

    # ---------------------------------------------------------- snapshotting

    def capture_state(self) -> dict:
        # Sharer sets hold small core ids; capture sorted for a stable
        # encoding (value-ordered iteration matches CPython's small-int
        # set order on restore, so replay is unaffected).
        return {"l1s": [l1.capture_state() for l1 in self.l1s],
                "llc": self.llc.capture_state(),
                "sharers": [(block, sorted(cores))
                            for block, cores in self._sharers.items()],
                "flush_path": self.flush_path.capture_state(),
                "image": self.image.capture_state(),
                "stats": self.stats.capture_state()}

    def restore_state(self, state: dict) -> None:
        for l1, l1_state in zip(self.l1s, state["l1s"]):
            l1.restore_state(l1_state)
        self.llc.restore_state(state["llc"])
        self._sharers = {block: set(cores)
                         for block, cores in state["sharers"]}
        self.flush_path.restore_state(state["flush_path"])
        self.image.restore_state(state["image"])
        self.stats.restore_state(state["stats"])

    # ------------------------------------------------------------ coherence

    def _sharer_add(self, core_id: int, block: int) -> None:
        self._sharers.setdefault(block, set()).add(core_id)

    def _sharer_drop(self, core_id: int, block: int) -> None:
        sharers = self._sharers.get(block)
        if sharers is not None:
            sharers.discard(core_id)
            if not sharers:
                del self._sharers[block]

    def _other_modified_owner(self, core_id: int,
                              block: int) -> Optional[int]:
        for owner in self._sharers.get(block, ()):
            if owner == core_id:
                continue
            line = self.l1s[owner].lookup(block, touch=False)
            if line is not None and line.state == MODIFIED:
                return owner
        return None

    def _snoop_downgrade_peers(self, core_id: int, block: int) -> bool:
        """A read snoop reached ``block``: every other L1 copy must drop
        to SHARED, or its owner's next store would take the silent
        exclusive-hit path and skip invalidating the new reader.  Only
        call after the MODIFIED-owner (c2c) case has been handled, so
        peers here are E or S and no dirty data can be lost.  Returns
        True when any peer copy exists (the requester fills SHARED)."""
        shared = False
        for owner in self._sharers.get(block, ()):
            if owner == core_id:
                continue
            self.l1s[owner].downgrade(block, SHARED)
            shared = True
        return shared

    def _invalidate_other_l1s(self, core_id: int, block: int) -> Dict[int, int]:
        """Invalidate every other L1 copy; returns merged dirty data."""
        merged: Dict[int, int] = {}
        for owner in list(self._sharers.get(block, ())):
            if owner == core_id:
                continue
            victim = self.l1s[owner].invalidate(block)
            self._sharer_drop(owner, block)
            if victim is not None:
                self.stats["coherence_invalidations"] += 1
                if victim.dirty:
                    merged.update(victim.data)
        return merged

    def _merge_into_llc(self, block: int, data: Dict[int, int],
                        dirty: bool, now: int) -> None:
        """Fold (possibly dirty) data into the inclusive LLC copy."""
        line = self.llc.lookup(block, touch=False)
        if line is None:
            victim = self.llc.insert(block, dict(data),
                                     MODIFIED if dirty else EXCLUSIVE)
            if victim is not None:
                self._retire_llc_victim(victim, now)
            return
        line.data.update(data)
        if dirty:
            line.state = MODIFIED

    def _retire_llc_victim(self, victim: EvictedLine, now: int) -> None:
        """An LLC line leaves the hierarchy: enforce inclusivity by pulling
        back any L1 copies, then notify the PMC if the result is dirty."""
        data = dict(victim.data)
        dirty = victim.dirty
        stats = self.stats
        for owner in list(self._sharers.get(victim.block, ())):
            pulled = self.l1s[owner].invalidate(victim.block)
            self._sharer_drop(owner, victim.block)
            if pulled is not None:
                stats["inclusive_back_invalidations"] += 1
                if pulled.dirty:
                    data.update(pulled.data)
                    dirty = True
        if dirty:
            stats["llc_dirty_writebacks"] += 1
            arrival = self.flush_path.send(now)
            self.pmc.accept_writeback(victim.block * 64, data, arrival)
        else:
            stats["llc_clean_evictions"] += 1

    def _fill_l1(self, core_id: int, block: int, data: Dict[int, int],
                 state: str, now: int) -> None:
        victim = self.l1s[core_id].insert(block, data, state)
        self._sharer_add(core_id, block)
        if victim is not None:
            self._sharer_drop(core_id, victim.block)
            if victim.dirty:
                self.stats["l1_dirty_evictions"] += 1
                self._merge_into_llc(victim.block, victim.data, True, now)

    # ----------------------------------------------------------------- load

    def load(self, core_id: int, addr: int, now: int,
             sink: Optional[Counter] = None) -> LoadResult:
        """Load ``addr`` for ``core_id``; a PM miss returns a
        :class:`PMLoad` that completes at its ``done`` and, if the value
        it returns is stale, bumps ``sink["stale_loads"]``."""
        block = addr >> 6
        stats = self.stats
        l1 = self.l1s[core_id]
        t = now + self.l1_lat
        line = l1.lookup(block)
        if line is not None:
            stats["l1_hits"] += 1
            return LoadResult(line.data.get(addr, 0), t, "l1")
        t += self.l2_lat
        # Dirty copy in a peer L1: cache-to-cache transfer, both -> SHARED.
        owner = self._other_modified_owner(core_id, block)
        if owner is not None:
            stats["c2c_transfers"] += 1
            peer = self.l1s[owner].lookup(block, touch=False)
            data = dict(peer.data)
            self.l1s[owner].downgrade(block, SHARED)
            self._merge_into_llc(block, data, True, t)
            self._fill_l1(core_id, block, dict(data), SHARED, t)
            return LoadResult(data.get(addr, 0), t, "c2c")
        llc_line = self.llc.lookup(block)
        if llc_line is not None:
            stats["llc_hits"] += 1
            shared = self._snoop_downgrade_peers(core_id, block)
            self._fill_l1(core_id, block, dict(llc_line.data),
                          SHARED if shared else EXCLUSIVE, t)
            return LoadResult(llc_line.data.get(addr, 0), t, "llc")
        # PM access (regular path read).
        stats["pm_reads"] += 1
        # Stale-read accounting compares against the architectural value
        # a race-free reader should observe *when the load issues*; later
        # same-thread stores must not be mistaken for staleness.
        load = PMLoad(self, core_id, addr, self.image.get(addr, 0), sink)
        load.done = self.pmc.read_block(block, t, load)
        return load

    # ---------------------------------------------------------------- store

    def store(self, core_id: int, addr: int, value: int, now: int) -> int:
        """Apply a committed store through the caches; returns the time the
        store is globally performed (exclusive ownership + data written)."""
        block = addr >> 6
        stats = self.stats
        l1 = self.l1s[core_id]
        self.image[addr] = value
        line = l1.lookup(block)
        if line is not None and line.state in (MODIFIED, EXCLUSIVE):
            stats["store_l1_hits"] += 1
            l1.write_line(line, addr, value)
            return now + self.l1_lat
        t = now + self.l1_lat + self.l2_lat
        if line is not None:  # SHARED: upgrade
            stats["store_upgrades"] += 1
            self._invalidate_other_l1s(core_id, block)
            l1.write_line(line, addr, value)
            return t
        # Write-allocate fetch.
        owner = self._other_modified_owner(core_id, block)
        merged = self._invalidate_other_l1s(core_id, block)
        if owner is not None:
            stats["store_c2c"] += 1
            data = merged
            self._merge_into_llc(block, data, True, t)
        else:
            llc_line = self.llc.lookup(block)
            if llc_line is not None:
                stats["store_llc_hits"] += 1
                data = dict(llc_line.data)
            else:
                # Write-on-allocation fetch from PM (Figure 4): a regular-
                # path Read the PMC observes, though the store itself does
                # not wait for full fetch latency in an OoO core; charge
                # the LLC round trip and book the PM read.
                stats["store_pm_fetches"] += 1
                self.pmc.read_block(block, t)
                data = self.pmc.device.block_content(block)
                llc_victim = self.llc.insert(block, dict(data), EXCLUSIVE)
                if llc_victim is not None:
                    self._retire_llc_victim(llc_victim, t)
        data[addr] = value
        self._fill_l1(core_id, block, data, MODIFIED, t)
        return t

    # ----------------------------------------------------------------- clwb

    def clwb(self, core_id: int, addr: int, now: int) -> int:
        """Write the line containing ``addr`` back toward the PMC without
        invalidating it.  Returns the durability (WPQ-acceptance) time a
        following SFENCE must wait for."""
        block = addr >> 6
        stats = self.stats
        t = now + self.l1_lat
        line = self.l1s[core_id].lookup(block, touch=False)
        if line is not None and line.state == MODIFIED:
            stats["clwb_flushes"] += 1
            line.state = EXCLUSIVE
            # Neither the merge nor the controller keeps the dict it is
            # handed (each copies what it keeps): no copy here.
            self._merge_into_llc(block, line.data, False, t)
            arrival = self.flush_path.send(t)
            return self.pmc.accept_writeback(block * 64, line.data, arrival)
        llc_line = self.llc.lookup(block, touch=False)
        if llc_line is not None and llc_line.state == MODIFIED:
            stats["clwb_flushes"] += 1
            llc_line.state = EXCLUSIVE
            arrival = self.flush_path.send(t + self.l2_lat)
            return self.pmc.accept_writeback(block * 64, llc_line.data,
                                             arrival)
        stats["clwb_clean"] += 1
        return t
