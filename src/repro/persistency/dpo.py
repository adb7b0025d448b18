"""DPO: Delegated Persist Ordering (Kolli et al., MICRO'16) -- the
buffered strict persistency baseline (§8.1, §8.2.2).

DPO runs the same CLWB+SFENCE binary as the IntelX86 design, but the
hardware differs:

* a persist buffer beside each L1 absorbs flushes, so CLWB itself is
  cheap and LLC dirty writebacks are dropped (persistence is delegated
  to the buffers);
* flushes drain through a **globally serialised** channel -- DPO "allows
  only a single flush to the persistent memory controller at once";
* because DPO targets ARM's relaxed consistency, it enforces the persist
  order at *every* barrier inherited in the program, including the
  volatile synchronisation (lock) operations TSO would not need --
  which is why it lands below the x86 baseline in Figure 9.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from ..mem import PMCPolicy
from ..sim import TimelineResource
from .base import Design, PersistLog, drain_origins


class DropWritebacksPolicy(PMCPolicy):
    """LLC dirty writebacks carry no persistence duty in buffered designs."""

    def on_writeback(self, block_addr: int, data: Dict[int, int],
                     now: int) -> None:
        pass


class DPO(Design):
    """Buffered strict persistency with delegated, serialised flushing."""

    name = "DPO"
    flavor = "x86"
    drops_llc_writebacks = True

    def bind(self, system) -> None:
        super().bind(system)
        config = system.config
        # DPO's delegated flushes ride the same persist path (§8.2).
        self._flush_cycles = config.ns(config.persist_path_ns)
        self._capacity = config.dpo_persist_buffer_entries
        # The single-flush-at-a-time channel, shared by every core.
        self._channel = TimelineResource(width=1, name="dpo.flush")
        self._pending: List[Deque[int]] = [
            deque() for _ in range(config.n_cores)]
        self._log = PersistLog(system.env, system.device)
        self._origins = drain_origins(config.n_cores)

    def build_pmc_policy(self, index: int = 0) -> PMCPolicy:
        return DropWritebacksPolicy()

    # -------------------------------------------------------------- events

    def _evict_completed(self, core_id: int, now: int) -> None:
        pending = self._pending[core_id]
        while pending and pending[0] <= now:
            pending.popleft()

    def clwb(self, core_id: int, addr: int, now: int) -> int:
        """Enqueue a flush into the persist buffer.  Returns the time the
        CLWB retires from the core's perspective (buffer admission)."""
        hierarchy = self.system.hierarchy
        block = addr >> 6
        # The log snapshots the line's words as it takes them: no copy
        # here.
        line = hierarchy.l1s[core_id].lookup(block, touch=False)
        if line is None:
            llc_line = hierarchy.llc.lookup(block, touch=False)
            data = llc_line.data if llc_line is not None else {}
        else:
            data = line.data
        self._evict_completed(core_id, now)
        stats = self.stats
        accept = now + hierarchy.l1_lat
        if len(self._pending[core_id]) >= self._capacity:
            accept = max(accept, self._pending[core_id][0])
            stats["buffer_full_stalls"] += 1
        _start, finish = self._channel.reserve(accept, self._flush_cycles)
        self._pending[core_id].append(finish)
        self._log.persist_block_at(block * 64, data, finish,
                                   self._origins[core_id])
        stats["clwbs"] += 1
        return accept

    def _drained(self, core_id: int, now: int) -> int:
        pending = self._pending[core_id]
        return pending[-1] if pending else now

    def sfence(self, core_id: int, now: int) -> int:
        """Buffered strict persistency: the fence waits for this core's
        persist buffer to fully drain through the serial channel."""
        core = self.system.cores[core_id]
        done = max(now, self._drained(core_id, now),
                   core.store_queue.drain_complete_time(now))
        stats = self.stats
        stats["sfences"] += 1
        stats["sfence_stall_cycles"] += done - now
        return done

    def on_lock_op(self, core_id: int, now: int) -> int:
        """§8.2.2: DPO orders persists at volatile barriers too."""
        done = max(now, self._drained(core_id, now))
        self.stats["volatile_barrier_stalls"] += done - now
        return done

    def capture_state(self) -> dict:
        state = super().capture_state()
        state["channel"] = self._channel.capture_state()
        state["pending"] = [list(pending) for pending in self._pending]
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._channel.restore_state(state["channel"])
        self._pending = [deque(pending) for pending in state["pending"]]
