"""Interconnects: the decoupled persist path (ring bus) and flush path.

The persist path is PMEM-Spec's core hardware addition (§4.2): a FIFO
channel from each core's store queue directly to the PM controller.  We
model the ring topology of §8.1: every message occupies a shared ring
slot (serialisation under contention) and then takes the idle traversal
latency; per-core FIFO order -- the property that gives strict
intra-thread persist order -- is enforced explicitly.

DPO's delegated-persist flush path reuses the same class with
``global_fifo=True``: DPO "globally serializes PM stores and allows only
a single flush to the persistent memory controller at once" (§8.2.2),
i.e. FIFO across *all* cores, not just within one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..config import SystemConfig
from ..sim import Counter, TimelineResource
from ..sim.metrics import NULL_METRICS, Metrics


class PersistPath:
    """Ring-bus store path from the store queues to the PM controller."""

    def __init__(self, config: SystemConfig, n_cores: int,
                 traversal_cycles: int = None, global_fifo: bool = False,
                 metrics: Optional[Metrics] = None):
        self.config = config
        self.n_cores = n_cores
        self.traversal = (config.ns(config.persist_path_ns)
                          if traversal_cycles is None else traversal_cycles)
        self.slot_cycles = max(1, config.ns(config.ring_slot_ns))
        self.global_fifo = global_fifo
        self._bus = TimelineResource(width=config.persist_path_lanes,
                                     name="persist-ring")
        self._last_arrival: List[int] = [0] * n_cores
        self._core_extra: List[int] = [0] * n_cores
        self._global_last = 0
        self.metrics = NULL_METRICS if metrics is None else metrics
        # Arrival times of messages injected but not yet at the PMC,
        # in injection order; lazily pruned when sampling depth.
        self._in_flight: Deque[int] = deque()
        self.stats = Counter()

    def set_core_extra(self, core_id: int, cycles: int) -> None:
        """Add fixed extra latency to one core's path.  Models asymmetric
        ring congestion; the §8.4 synthetic store-misspeculation
        experiment uses it to make one core's persists arrive late."""
        if cycles < 0:
            raise ValueError("negative extra latency")
        self._core_extra[core_id] = cycles

    def send(self, core_id: int, now: int) -> int:
        """Inject a message at ``now``; returns its PMC arrival time."""
        if not 0 <= core_id < self.n_cores:
            raise ValueError(f"bad core id {core_id}")
        _start, slot_done = self._bus.reserve(now, self.slot_cycles)
        arrival = slot_done + self.traversal + self._core_extra[core_id]
        # Per-core FIFO: a later message can never overtake an earlier one
        # from the same core (this is the strict intra-thread persist order).
        if arrival <= self._last_arrival[core_id]:
            arrival = self._last_arrival[core_id] + 1
        if self.global_fifo and arrival <= self._global_last:
            arrival = self._global_last + 1
        self._last_arrival[core_id] = arrival
        if arrival > self._global_last:
            self._global_last = arrival
        # Counters bumped in place and conditionals for max(): one
        # message per persist.
        stats = self.stats
        stats["messages"] += 1
        waited = slot_done - now - self.slot_cycles
        stats["cycles_waited"] += waited if waited > 0 else 0
        if self.metrics.enabled:
            in_flight = self._in_flight
            while in_flight and in_flight[0] <= now:
                in_flight.popleft()
            in_flight.append(arrival)
            self.metrics.sample("persist_path_depth", now, len(in_flight))
        return arrival

    def last_arrival(self, core_id: int) -> int:
        """Arrival time of the most recent message from ``core_id``
        (what a durability barrier must wait for)."""
        return self._last_arrival[core_id]

    def idle_window(self) -> int:
        """§8.1 speculative period: n_cores x idle path latency."""
        return self.n_cores * self.traversal

    def capture_state(self) -> dict:
        return {"bus": self._bus.capture_state(),
                "last_arrival": list(self._last_arrival),
                "core_extra": list(self._core_extra),
                "global_last": self._global_last,
                "in_flight": list(self._in_flight),
                "stats": self.stats.capture_state()}

    def restore_state(self, state: dict) -> None:
        self._bus.restore_state(state["bus"])
        self._last_arrival = list(state["last_arrival"])
        self._core_extra = list(state["core_extra"])
        self._global_last = state["global_last"]
        self._in_flight = deque(state["in_flight"])
        self.stats.restore_state(state["stats"])


class FlushPath:
    """Regular-path flush traversal (CLWB / LLC writeback to the PMC).

    A simple shared link with the L1-to-PMC latency of §8.1 (11 ns) and
    slot-level serialisation; much wider than the ring since it rides the
    existing memory interconnect.
    """

    def __init__(self, config: SystemConfig, width: int = 4):
        self.traversal = config.ns(config.l1_to_pmc_ns)
        self.slot_cycles = max(1, config.ns(config.ring_slot_ns))
        self._bus = TimelineResource(width=width, name="flush-path")
        self.stats = Counter()

    def send(self, now: int) -> int:
        """Returns arrival time at the PMC."""
        _start, slot_done = self._bus.reserve(now, self.slot_cycles)
        self.stats["messages"] += 1
        return slot_done + self.traversal

    def capture_state(self) -> dict:
        return {"bus": self._bus.capture_state(),
                "stats": self.stats.capture_state()}

    def restore_state(self, state: dict) -> None:
        self._bus.restore_state(state["bus"])
        self.stats.restore_state(state["stats"])


class SpecIdCounter:
    """The global speculation-ID counter (§5.2.2).

    ``spec-assign`` atomically reads and increments it at critical-section
    entry, so threads receive IDs in the order they enter critical
    sections -- exactly the happens-before order the mutex establishes.
    IDs start at 1; 0 means "untagged" (outside any critical section).
    """

    UNTAGGED = 0

    def __init__(self) -> None:
        self._next = 1
        self.assigned = 0

    def assign(self) -> int:
        spec_id = self._next
        self._next += 1
        self.assigned += 1
        return spec_id

    @property
    def current(self) -> int:
        return self._next

    def capture_state(self) -> dict:
        return {"next": self._next, "assigned": self.assigned}

    def restore_state(self, state: dict) -> None:
        self._next = state["next"]
        self.assigned = state["assigned"]


class PersistMessage:
    """One persist-path message: a committed PM store."""

    __slots__ = ("core_id", "addr", "value", "spec_id", "kind")

    def __init__(self, core_id: int, addr: int, value: int,
                 spec_id: int = SpecIdCounter.UNTAGGED, kind: str = "data"):
        self.core_id = core_id
        self.addr = addr
        self.value = value
        self.spec_id = spec_id
        self.kind = kind

    @property
    def tagged(self) -> bool:
        return self.spec_id != SpecIdCounter.UNTAGGED

    def __repr__(self) -> str:
        tag = f", spec_id={self.spec_id}" if self.tagged else ""
        return (f"PersistMessage(core={self.core_id}, addr=0x{self.addr:x}"
                f"{tag})")


class LockNetwork:
    """Futex-style lock handoff cost between cores.

    Workload locks are DES mutexes; this adds the cache-line transfer
    latency a contended lock word costs when ownership migrates.
    """

    def __init__(self, config: SystemConfig):
        self.handoff_cycles = config.ns(config.lock_handoff_ns)
        self._last_owner: Dict[int, int] = {}

    def transfer_cost(self, lock_id: int, core_id: int) -> int:
        """Cycles to acquire ``lock_id`` on ``core_id`` given its last owner."""
        previous = self._last_owner.get(lock_id)
        self._last_owner[lock_id] = core_id
        if previous is None or previous == core_id:
            return 0
        return self.handoff_cycles

    def capture_state(self) -> dict:
        return {"last_owner": list(self._last_owner.items())}

    def restore_state(self, state: dict) -> None:
        self._last_owner = {lock: core for lock, core in state["last_owner"]}
