"""StrandWeaver (Gogte et al., ISCA'20): strand persistency -- the
*extension* comparison point beyond the paper's three baselines (§2.1,
§9 discuss it; the paper reports it beats HOPS at still-higher hardware
cost than PMEM-Spec).

Strand persistency lets the program declare independent *strands*:

* ``NewStrand`` clears persist-order dependencies -- the new strand's
  persists may drain concurrently with every older strand;
* ``persist_barrier`` (our :class:`~repro.isa.StrandBarrier`) orders
  persists within the current strand only and never stalls the core;
* ``JoinStrand`` makes subsequent persists ordered after all
  outstanding strands (used before a FASE's commit record).

Hardware model: a strand buffer beside each L1 whose entries drain to
the PMC over ``strand_lanes`` concurrent lanes; entries of one strand
chain FIFO behind each other, different strands only compete for lanes.
The undo-log groups of one FASE land in separate strands, so -- unlike
HOPS' single FIFO persist buffer -- a FASE's log/data groups drain in
parallel; only the commit record joins them.

Approximations (favourable to StrandWeaver, noted in DESIGN.md): the
delayed-exclusive-response coherence cost and the persist-queue core
extension are folded into the same one-bit bus overhead as HOPS; reads
are not checked against the strand buffers.
"""

from __future__ import annotations

from typing import Dict, List

from ..mem import PMCPolicy
from ..sim import TimelineResource
from .base import Design, PersistLog, drain_origins
from .dpo import DropWritebacksPolicy


class _CoreStrands:
    """Per-core strand-buffer drain state."""

    __slots__ = ("chain_finish", "outstanding", "open_blocks")

    def __init__(self) -> None:
        self.chain_finish = 0      # last drain finish of the CURRENT strand
        self.outstanding = 0       # max drain finish over ALL strands
        self.open_blocks: Dict[int, int] = {}


class StrandWeaver(Design):
    """Strand persistency with parallel per-strand drains."""

    name = "StrandWeaver"
    flavor = "strand"
    drops_llc_writebacks = True

    def bind(self, system) -> None:
        super().bind(system)
        config = system.config
        # Strand drains ride the persist path too (§8.1's shared knob).
        self._service = (config.ns(config.persist_path_ns)
                         + max(1, config.ns(config.ring_slot_ns)))
        lanes = int(config.extra.get("strand_lanes", 4))
        self._lanes: List[TimelineResource] = [
            TimelineResource(width=lanes, name=f"strand[{i}]")
            for i in range(config.n_cores)]
        self._cores: List[_CoreStrands] = [
            _CoreStrands() for _ in range(config.n_cores)]
        self._log = PersistLog(system.env, system.device)
        self._origins = drain_origins(config.n_cores)
        self._sticky_extra = config.ns(config.hops_sticky_bus_extra_ns)

    def build_pmc_policy(self, index: int = 0) -> PMCPolicy:
        return DropWritebacksPolicy()

    @property
    def bus_extra_cycles(self) -> int:
        return self._sticky_extra

    # -------------------------------------------------------------- stores

    def store(self, core_id: int, addr: int, value: int, now: int,
              to_pm: bool = True, kind: str = "data",
              shared: bool = True) -> int:
        done = self.system.hierarchy.store(core_id, addr, value, now)
        if to_pm:
            state = self._cores[core_id]
            block = addr >> 6
            pending = state.open_blocks.get(block)
            stats = self.stats
            if pending is not None and now < pending:
                stats["sb_coalesced"] += 1
                drained = pending
            else:
                # Chain behind the current strand, compete for a lane.
                start = max(now, state.chain_finish)
                _s, drained = self._lanes[core_id].reserve(start,
                                                           self._service)
                state.chain_finish = drained
                state.open_blocks[block] = drained
                if len(state.open_blocks) > 1024:
                    state.open_blocks = {b: d for b, d
                                         in state.open_blocks.items()
                                         if d > now}
            if drained > state.outstanding:
                state.outstanding = drained
            self._log.persist_at(addr, value, drained,
                                 self._origins[core_id])
            stats["pm_stores"] += 1
        return done

    # -------------------------------------------------------------- strands

    def new_strand(self, core_id: int, now: int) -> int:
        """Clear the intra-strand chain: the next persists start fresh."""
        state = self._cores[core_id]
        state.chain_finish = 0
        state.open_blocks.clear()
        self.stats.add("new_strands")
        return now + 1

    def strand_barrier(self, core_id: int, now: int) -> int:
        """Intra-strand ordering only: the FIFO chain already provides
        it, so the barrier is a single-cycle marker."""
        self.stats.add("strand_barriers")
        return now + 1

    def join_strand(self, core_id: int, now: int) -> int:
        """Subsequent persists chain behind every outstanding strand."""
        state = self._cores[core_id]
        state.chain_finish = max(state.chain_finish, state.outstanding)
        state.open_blocks.clear()
        self.stats.add("joins")
        return now + 1

    def dfence(self, core_id: int, now: int) -> int:
        """Durability: every outstanding strand has drained."""
        core = self.system.cores[core_id]
        state = self._cores[core_id]
        done = max(now, state.outstanding,
                   core.store_queue.drain_complete_time(now))
        self.stats.add("dfences")
        self.stats.add("dfence_stall_cycles", done - now)
        trace = self.system.env.trace
        if trace.enabled:
            # See repro.crashstates.models: the per-core chain model
            # (a conservative approximation of strand semantics) floors
            # every drain accepted at or before this retirement.
            trace.instant("order", "fence", done,
                          args={"core": core_id}, cat="order")
        return done
