"""The persistent-memory controller (PMC).

The PMC owns the read and write-pending queues (Table 3: 32/64 entries)
and the durability point: under ADR (§8.1) a write is durable once it is
*accepted* into the write queue, so acceptance times are what fences and
spec-barriers wait on.

Behavioural differences between the four evaluated designs are injected
through a :class:`PMCPolicy`:

* the **default** policy (IntelX86/DPO) persists CLWB data and LLC dirty
  writebacks;
* **HOPS** adds a bloom-filter lookup to every PM read and persists from
  its per-core persist buffers;
* **PMEM-Spec** (:mod:`repro.core.pmem_spec`) silently *drops* LLC
  writeback data, persists only persist-path messages, and feeds every
  arrival into the speculation buffer's automaton.

All policy hooks run at message *arrival time* in global time order (the
controller queues one slotted record per message, which calls its hook
at the message's cycle), which is what makes the ``WriteBack - Read -
Persist`` misspeculation pattern detectable exactly as in Figure 5.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import SystemConfig
from ..sim import CapacityQueue, Counter, Environment
from .interconnect import PersistMessage
from .pm_device import PMDevice


class PMCPolicy:
    """Default (baseline) PMC behaviour; designs override pieces.

    A controller owns its policy, so the policy keeps the device it
    persists into, not the controller: the two form no reference cycle.
    """

    def attach(self, pmc: "PMController") -> None:
        """Called by the controller that installs this policy."""
        self.device = pmc.device

    def read_delay(self, block: int, now: int) -> int:
        """Extra cycles charged before a PM read is enqueued (HOPS bloom)."""
        return 0

    def on_read(self, block: int, now: int) -> None:
        """Called at read-arrival time, in global time order."""

    def on_writeback(self, block_addr: int, data: Dict[int, int],
                     now: int) -> None:
        """Called at writeback-arrival time; baselines persist the block."""
        self.device.persist_block(block_addr, data, now)

    def on_persist(self, msg: PersistMessage, now: int) -> None:
        """Called at persist-path message arrival; persists the store."""
        self.device.persist_store(msg.addr, msg.value, now)

    def capture_state(self) -> dict:
        """Policies are stateless by default; stateful ones override."""
        return {}

    def restore_state(self, state: dict) -> None:
        pass


class _PMRead:
    """One regular-path PM read in flight: the controller's only queue
    item for it, queued three times.

    At arrival it runs the policy's read hook and takes the block's
    persisted contents; at ``done`` it queues itself once more, for the
    completion's own hop; on that hop it hands the contents to
    ``fill``.  A read without a fill (a store's write-allocate fetch)
    takes every hop too, so every read costs the same three pushes: the
    queue's push count is part of every snapshot payload and of the
    pinned simulation digests.
    """

    __slots__ = ("pmc", "block", "done", "fill", "content", "hops")

    def __init__(self, pmc: "PMController", block: int, done: int, fill):
        self.pmc = pmc
        self.block = block
        self.done = done
        self.fill = fill
        self.content = None
        self.hops = 0

    def __call__(self) -> None:
        hops = self.hops = self.hops + 1
        if hops == 1:
            pmc = self.pmc
            pmc.policy.on_read(self.block, pmc.env.now)
            if self.fill is not None:
                self.content = pmc.device.block_content(self.block)
        elif hops == 2:
            self.pmc.env.schedule_at(self.done, self)
        elif self.fill is not None:
            self.fill(self.content, self.done)


class _WritebackArrival:
    """A writeback reaching the policy at its acceptance cycle."""

    __slots__ = ("policy", "block_addr", "data", "when")

    def __init__(self, policy: PMCPolicy, block_addr: int,
                 data: Dict[int, int], when: int):
        self.policy = policy
        self.block_addr = block_addr
        self.data = data
        self.when = when

    def __call__(self) -> None:
        self.policy.on_writeback(self.block_addr, self.data, self.when)


class _PersistArrival:
    """A persist-path message reaching the policy at its acceptance
    cycle."""

    __slots__ = ("policy", "msg", "when")

    def __init__(self, policy: PMCPolicy, msg: PersistMessage, when: int):
        self.policy = policy
        self.msg = msg
        self.when = when

    def __call__(self) -> None:
        self.policy.on_persist(self.msg, self.when)


class PMController:
    """Read/write queueing plus policy dispatch for one PM channel."""

    def __init__(self, env: Environment, config: SystemConfig,
                 device: PMDevice, policy: Optional[PMCPolicy] = None):
        self.env = env
        self.config = config
        self.device = device
        self.policy = policy or PMCPolicy()
        self.policy.attach(self)
        self.read_queue = CapacityQueue(
            capacity=config.pmc_read_queue,
            drain_latency=config.ns(config.pm_read_ns),
            width=config.pmc_banks, name="pmc.read")
        self.write_queue = CapacityQueue(
            capacity=config.pmc_write_queue,
            drain_latency=config.ns(config.pm_write_ns),
            width=config.pmc_write_banks, name="pmc.write")
        # Open (not yet drained) WPQ entries by block: the controller
        # "coalesces and buffers the store data" (§4.2), so stores landing
        # in a block whose entry is still pending merge into it instead of
        # consuming another entry.
        self._wpq_open: Dict[int, tuple] = {}
        # Per-core FIFO clamp for persist-path acceptance times.
        self._core_fifo: Dict[int, int] = {}
        self.stats = Counter()
        # Hook fired once per real (non-coalesced) WPQ admission.
        self.on_accept = None

    #: Trace track for controller-side acceptance events.
    TRACE_TRACK = "pmc"

    def _observe_wpq(self, now: int) -> None:
        self.env.metrics.sample("wpq_depth", now,
                                self.write_queue.occupancy(now))

    def _wpq_admit(self, block: int, arrival: int) -> int:
        """Admit one block-granular write; coalesces into a pending entry
        for the same block when possible.  Returns the ADR-acceptance time."""
        entry = self._wpq_open.get(block)
        if entry is not None:
            booked_at, accept, drain = entry
            if booked_at <= arrival < drain:
                self.stats["wpq_coalesced"] += 1
                return accept if accept > arrival else arrival
        accept, drain = self.write_queue.push(arrival)
        self._wpq_open[block] = (arrival, accept, drain)
        if len(self._wpq_open) > 4096:
            self._wpq_open = {b: e for b, e in self._wpq_open.items()
                              if e[2] > arrival}
        if self.on_accept is not None:
            self.on_accept()
        return accept

    # ---------------------------------------------------------------- reads

    def read_block(self, block: int, now: int, fill=None) -> int:
        """Fetch a block from PM for the regular path; returns ``done``.

        ``fill(content, done)``, when given, runs at ``done`` with the
        block contents *as persisted at arrival time* (a fresh dict the
        callee may keep) -- the stale-read semantics of §5.1: a value
        still in flight on the persist path is not visible.  ``done`` is
        returned synchronously so the core can model memory-level
        parallelism without waiting on the read.
        """
        stats = self.stats
        stats["reads"] += 1
        delay = self.policy.read_delay(block, now)
        if delay:
            stats["read_delay_cycles"] += delay
        accept, done = self.read_queue.push(now + delay)
        if self.env.trace.enabled:
            # Reads participate in the WriteBack-Read-Persist pattern
            # (Figure 5), so the oracle needs them in the trace stream
            # at the same time the policy observes them.
            self.env.trace.instant(self.TRACE_TRACK, "pm-read", accept,
                                   args={"block": block}, cat="pmc")
        read = _PMRead(self, block, done, fill)
        self.env.schedule_at(accept, read)
        self.env.schedule_at(done, read)
        return done

    # ----------------------------------------------------------- writebacks

    def accept_writeback(self, block_addr: int, data: Dict[int, int],
                         arrival: int) -> int:
        """An LLC dirty eviction or CLWB flush arriving from the regular
        path.  Returns the write-queue acceptance (durability) time."""
        self.stats["writebacks"] += 1
        accept = self._wpq_admit(block_addr >> 6, arrival)
        if self.env.trace.enabled:
            self.env.trace.instant(
                self.TRACE_TRACK, "writeback-accept", accept,
                args={"block": block_addr >> 6}, cat="pmc")
        if self.env.metrics.enabled:
            self._observe_wpq(arrival)
        self.env.schedule_at(accept, _WritebackArrival(
            self.policy, block_addr, dict(data), accept))
        return accept

    # -------------------------------------------------------- persist path

    def accept_persist(self, msg: PersistMessage, arrival: int) -> int:
        """A persist-path store arriving; returns acceptance (ADR) time.

        Acceptance is clamped to be FIFO per source core: the persist
        path delivers a core's stores in commit order, and WPQ admission
        must not reorder them (strict intra-thread persist order is the
        property the undo-log protocol rests on)."""
        self.stats["persists"] += 1
        accept = self._wpq_admit(msg.addr >> 6, arrival)
        previous = self._core_fifo.get(msg.core_id, 0)
        if accept < previous:
            accept = previous
        self._core_fifo[msg.core_id] = accept
        if self.env.trace.enabled:
            args = {"core": msg.core_id, "block": msg.addr >> 6,
                    "arrival": arrival}
            if msg.spec_id:
                args["spec_id"] = msg.spec_id
            self.env.trace.instant(self.TRACE_TRACK, "persist-accept",
                                   accept, args=args, cat="pmc")
        if self.env.metrics.enabled:
            self._observe_wpq(arrival)
        self.env.schedule_at(accept,
                             _PersistArrival(self.policy, msg, accept))
        return accept

    # -------------------------------------------------------------- helpers

    def write_queue_drained(self, now: int) -> int:
        """Time at which everything currently in the WPQ has reached the
        device (only needed by explicit drain experiments, not ADR)."""
        return self.write_queue.drain_complete_time(now)

    # ---------------------------------------------------------- snapshotting

    def capture_state(self) -> dict:
        # _wpq_open/_core_fifo as ordered item lists: insertion order
        # matters for the >4096 prune and for replay determinism.  The
        # device is captured by the system (PMCComplex controllers share
        # one device; capturing it here would multiply it).
        return {"read_queue": self.read_queue.capture_state(),
                "write_queue": self.write_queue.capture_state(),
                "wpq_open": [(block, list(entry))
                             for block, entry in self._wpq_open.items()],
                "core_fifo": list(self._core_fifo.items()),
                "stats": self.stats.capture_state(),
                "policy": self.policy.capture_state()}

    def restore_state(self, state: dict) -> None:
        self.read_queue.restore_state(state["read_queue"])
        self.write_queue.restore_state(state["write_queue"])
        self._wpq_open = {block: tuple(entry)
                          for block, entry in state["wpq_open"]}
        self._core_fifo = {core: t for core, t in state["core_fifo"]}
        self.stats.restore_state(state["stats"])
        self.policy.restore_state(state["policy"])
