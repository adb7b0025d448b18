"""The IntelX86 epoch-persistency baseline (§8.1).

Implements the epoch-based persistency model with stock x86 primitives:
``CLWB`` pushes a dirty line toward the PM controller and ``SFENCE``
divides the program into epochs, stalling the core until every prior
CLWB's data has been accepted into the ADR domain.  Both consume store
queue entries (§8.2.1), which the CPU core models via the occupancy
services this class returns.

LLC dirty writebacks persist normally (the default PMC policy): with the
x86 ISA persistent data always travels the regular path.
"""

from __future__ import annotations

from typing import List

from .base import Design


class IntelX86Epoch(Design):
    """Epoch persistency with CLWB + SFENCE on unmodified hardware."""

    name = "IntelX86"
    flavor = "x86"

    def bind(self, system) -> None:
        super().bind(system)
        # Acceptance time of the latest outstanding CLWB per core; SFENCE
        # waits for the max.
        self._clwb_horizon: List[int] = [0] * system.config.n_cores

    def clwb(self, core_id: int, addr: int, now: int) -> int:
        accept = self.system.hierarchy.clwb(core_id, addr, now)
        if accept > self._clwb_horizon[core_id]:
            self._clwb_horizon[core_id] = accept
        self.stats["clwbs"] += 1
        trace = self.system.env.trace
        if trace.enabled:
            # Flush-attribution instant: lets the epoch durable-state
            # model (repro.crashstates.models) join the device-level
            # writeback accepted at this (block, cycle) to the flushing
            # core, and hence to that core's open epoch.
            trace.instant("order", "flush", accept,
                          args={"core": core_id, "block": addr >> 6},
                          cat="order")
        return accept

    def sfence(self, core_id: int, now: int) -> int:
        """Stall until prior CLWBs are durable and the store queue has
        drained; returns the time the fence retires."""
        core = self.system.cores[core_id]
        done = max(now, self._clwb_horizon[core_id],
                   core.store_queue.drain_complete_time(now))
        stats = self.stats
        stats["sfences"] += 1
        stats["sfence_stall_cycles"] += done - now
        trace = self.system.env.trace
        if trace.enabled:
            # Epoch-closing instant: flushes accepted at or before this
            # retirement belong to a closed epoch and become mandatory
            # in every enumerated durable state.
            trace.instant("order", "fence", done,
                          args={"core": core_id}, cat="order")
        return done

    def capture_state(self) -> dict:
        state = super().capture_state()
        state["clwb_horizon"] = list(self._clwb_horizon)
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._clwb_horizon = list(state["clwb_horizon"])
