"""PMEM-Spec: the paper's design (§4-§5).

Core side
---------
Every PM store is sent *both* into the caches and down the decoupled
persist path when it leaves the store queue, in commit order (§4.2) --
that FIFO property alone provides strict intra-thread persist order, so
the only barrier the program needs is ``spec-barrier`` at the end of
each FASE.  Stores committed while the core's spec-ID register is live
(between ``spec-assign`` and ``spec-revoke``, i.e. inside a compiler-
identified critical section) are tagged with the ID (§5.2.2).

PMC side
--------
:class:`PMEMSpecPMCPolicy` drops LLC writeback *data* (dirty lines are
silently dropped, §4.2) but feeds every writeback/read/persist arrival
into the :class:`~repro.core.spec_buffer.SpeculationBuffer`, which runs
the Figure 5 automaton for load misspeculation and the spec-ID check
for store misspeculation, and reports violations upward (OS -> runtime).
"""

from __future__ import annotations

from typing import Dict, List

from ..mem import PMCPolicy, PersistMessage
from ..persistency.base import Design
from .spec_buffer import SpeculationBuffer


class PMEMSpecPMCPolicy(PMCPolicy):
    """PMC behaviour for PMEM-Spec: drop writebacks, persist the persist
    path, and drive the speculation buffer in arrival order."""

    def __init__(self, spec_buffer: SpeculationBuffer):
        self.spec_buffer = spec_buffer

    def on_writeback(self, block_addr: int, data: Dict[int, int],
                     now: int) -> None:
        # Data silently dropped (§4.2); only monitoring starts.
        self.spec_buffer.on_writeback(block_addr >> 6, now)

    def on_read(self, block: int, now: int) -> None:
        self.spec_buffer.on_read(block, now)

    def on_persist(self, msg: PersistMessage, now: int) -> None:
        device = self.device
        # Only the device history reads the origin label: make it only
        # for a device that keeps one.
        device.persist_store(
            msg.addr, msg.value, now,
            f"persist:c{msg.core_id}:s{msg.spec_id}"
            if device.record_history else None)
        self.spec_buffer.on_persist(msg.addr >> 6, msg.spec_id,
                                    msg.core_id, now)


class PMEMSpec(Design):
    """The proposed design: speculative PM accesses over a persist path."""

    name = "PMEM-Spec"
    flavor = "pmemspec"
    drops_llc_writebacks = True
    uses_persist_path = True

    def bind(self, system) -> None:
        super().bind(system)
        self._last_accept: List[int] = [0] * system.config.n_cores
        # Ablation knob: tag even compiler-provably-private stores, as a
        # compiler without escape analysis would (bench_ablations).
        self._tag_private = bool(
            system.config.extra.get("tag_private_stores", 0))

    def build_pmc_policy(self, index: int = 0) -> PMCPolicy:
        # One speculation buffer per controller: detection state cannot
        # span controllers, which is exactly the §7 limitation.
        return PMEMSpecPMCPolicy(self.system.spec_buffers[index])

    # -------------------------------------------------------------- stores

    def store(self, core_id: int, addr: int, value: int, now: int,
              to_pm: bool = True, kind: str = "data",
              shared: bool = True) -> int:
        """Dual-issue: caches via the regular path, PM via the persist
        path, simultaneously at store-queue departure (§4.2)."""
        system = self.system
        done = system.hierarchy.store(core_id, addr, value, now)
        if to_pm:
            spec_id = 0
            if kind == "data" and (shared or self._tag_private):
                # Only shared-data stores inside critical sections carry
                # IDs; undo-log records, commit records, and stores the
                # compiler proves thread-private need no inter-thread
                # persist order (§5.2.2).
                spec_id = system.spec_ids.current(core_id)
            msg = PersistMessage(core_id, addr, value, spec_id, kind)
            arrival = system.persist_path.send(core_id, now)
            accept = system.pmc.accept_persist(msg, arrival)
            if accept > self._last_accept[core_id]:
                self._last_accept[core_id] = accept
            stats = self.stats
            stats["persist_path_stores"] += 1
            if spec_id:
                stats["tagged_stores"] += 1
            trace = system.env.trace
            if trace.enabled:
                # One span per store covering issue -> ring traversal ->
                # PMC acceptance (the full persist-path journey, §4.2).
                args = {"core": core_id, "addr": addr, "kind": kind,
                        "arrival": arrival, "accept": accept}
                if spec_id:
                    args["spec_id"] = spec_id
                trace.complete("persist-path", "persist", now,
                               max(accept - now, 1), args=args,
                               cat="persist-path")
        return done

    # -------------------------------------------------------------- fences

    def spec_barrier(self, core_id: int, now: int) -> int:
        """Durability barrier: previous PM stores of this core must have
        reached the persistent domain (the PM controller, §4.2)."""
        core = self.system.cores[core_id]
        done = max(now, self._last_accept[core_id],
                   core.store_queue.drain_complete_time(now))
        stats = self.stats
        stats["spec_barriers"] += 1
        stats["spec_barrier_stall_cycles"] += done - now
        return done

    def spec_assign(self, core_id: int, now: int) -> int:
        self.system.spec_ids.assign(core_id)
        self.stats["spec_assigns"] += 1
        return now + 1

    def spec_revoke(self, core_id: int, now: int) -> int:
        self.system.spec_ids.revoke(core_id)
        self.stats["spec_revokes"] += 1
        return now + 1

    def capture_state(self) -> dict:
        state = super().capture_state()
        state["last_accept"] = list(self._last_accept)
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._last_accept = list(state["last_accept"])
