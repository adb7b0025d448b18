"""The speculation buffer in the PM controller (§5.3, Figure 8).

Each entry holds ``Address`` (cache-block aligned), the automaton
``State``, the last ``Spec-ID`` observed for the block, and ``Inserted``
(the cycle its speculation window started).  Entries are allocated when
the PMC receives

* an **LLC writeback** from the regular path (load-misspeculation
  monitoring), or
* a **tagged persist** from the persist path (store-misspeculation
  tracking -- only stores inside critical sections carry spec-IDs).

Entries live for one speculation window and are lazily expired.  When
allocation finds no free entry, *all cores pause* until the oldest entry
expires (§5.3); :class:`StallController` broadcasts that pause to the
cores, and Figure 11's buffer-size sensitivity comes from exactly these
pauses.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..sim import Counter
from ..sim.metrics import NULL_METRICS, Metrics
from ..sim.trace import NULL_TRACER, Tracer
from . import automata
from .events import MisspeculationEvent


class StallController:
    """Global all-core pause used on speculation-buffer overflow."""

    def __init__(self) -> None:
        self.resume_at = 0
        self.stalls = 0
        self.total_stall_cycles = 0

    def stall_all_until(self, now: int, resume_at: int) -> None:
        if resume_at > self.resume_at:
            self.stalls += 1
            self.total_stall_cycles += resume_at - max(now, self.resume_at)
            self.resume_at = resume_at

    def release_time(self, now: int) -> int:
        """Earliest time a core may proceed (== now when not stalled)."""
        return max(now, self.resume_at)

    @property
    def stalled(self) -> bool:
        return self.resume_at > 0

    def capture_state(self) -> dict:
        return {"resume_at": self.resume_at,
                "stalls": self.stalls,
                "total_stall_cycles": self.total_stall_cycles}

    def restore_state(self, state: dict) -> None:
        self.resume_at = state["resume_at"]
        self.stalls = state["stalls"]
        self.total_stall_cycles = state["total_stall_cycles"]


class SpecBufferEntry:
    """One speculation-buffer row (Figure 8)."""

    __slots__ = ("block", "state", "spec_id", "inserted")

    def __init__(self, block: int, state: str, inserted: int,
                 spec_id: int = 0):
        self.block = block
        self.state = state
        self.spec_id = spec_id
        self.inserted = inserted

    def expired(self, now: int, window: int) -> bool:
        return now - self.inserted >= window

    def __repr__(self) -> str:
        return (f"SpecBufferEntry(block={self.block}, state={self.state}, "
                f"spec_id={self.spec_id}, inserted={self.inserted})")


class SpeculationBuffer:
    """The PMC-side buffer driving both misspeculation detectors.

    ``report`` receives each detected misspeculation.  The system that
    owns the buffer passes a closure over its event loop and interrupt
    controller, not one of its own bound methods, so the buffer never
    points back at its owner.
    """

    #: Trace track all speculation-buffer events land on.
    TRACE_TRACK = "spec-buffer"

    def __init__(self, entries: int, window: int,
                 stall: Optional[StallController] = None,
                 report: Optional[Callable[[MisspeculationEvent], None]] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[Metrics] = None,
                 name: str = "spec-buffer"):
        if entries < 1:
            raise ValueError("speculation buffer needs >= 1 entry")
        if window < 1:
            raise ValueError("speculation window must be >= 1 cycle")
        self.capacity = entries
        self.window = window
        self.stall = stall or StallController()
        self.report = report or (lambda event: None)
        self.trace = NULL_TRACER if tracer is None else tracer
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.name = name
        self._entries: List[SpecBufferEntry] = []
        self.stats = Counter()

    # --------------------------------------------------------- observability

    def _trace_transition(self, block: int, old: str, new: str, now: int,
                          spec_id: int = 0) -> None:
        args = {"block": block}
        if spec_id:
            args["spec_id"] = spec_id
        self.trace.instant(self.TRACE_TRACK, f"{old}->{new}", now,
                           args=args, cat="spec-buffer")

    def _observe_occupancy(self, now: int) -> None:
        self.metrics.sample("spec_buffer_occupancy", now,
                            len(self._entries))

    # ------------------------------------------------------------ plumbing

    def _expire(self, now: int) -> None:
        # Every input calls this, and most find no window ended: the
        # list is rebuilt only when some entry expired (an entry expires
        # when ``now - inserted >= window``, as in ``expired``).
        cutoff = now - self.window
        entries = self._entries
        for entry in entries:
            if entry.inserted <= cutoff:
                break
        else:
            return
        survivors = [entry for entry in entries if entry.inserted > cutoff]
        self.stats["expirations"] += len(entries) - len(survivors)
        self._entries = survivors

    def _find(self, block: int) -> Optional[SpecBufferEntry]:
        for entry in self._entries:
            if entry.block == block:
                return entry
        return None

    def _allocate(self, block: int, state: str, now: int,
                  spec_id: int = 0) -> SpecBufferEntry:
        """Allocate an entry, pausing all cores on overflow (§5.3)."""
        self._expire(now)
        stats = self.stats
        if len(self._entries) >= self.capacity:
            oldest = min(self._entries, key=lambda e: e.inserted)
            resume = oldest.inserted + self.window
            stats["overflows"] += 1
            self.stall.stall_all_until(now, resume)
            self._entries.remove(oldest)
            stats["expirations"] += 1
            now = resume
        entry = SpecBufferEntry(block, state, now, spec_id)
        self._entries.append(entry)
        stats["allocations"] += 1
        if self.trace.enabled and state != automata.INITIAL:
            self._trace_transition(block, automata.INITIAL, state, now,
                                   spec_id=spec_id)
        return entry

    def _deallocate(self, entry: SpecBufferEntry) -> None:
        self._entries.remove(entry)

    def _apply(self, entry: SpecBufferEntry, symbol: str, now: int) -> str:
        old_state = entry.state
        next_state, action = automata.step(entry.state, symbol)
        entry.state = next_state
        if self.trace.enabled and next_state != old_state:
            self._trace_transition(entry.block, old_state, next_state, now,
                                   spec_id=entry.spec_id)
        if action == automata.RESTART_WINDOW:
            entry.inserted = now
        elif action == automata.DEALLOCATE:
            self._deallocate(entry)
        return next_state

    # -------------------------------------------------------------- inputs

    def on_writeback(self, block: int, now: int) -> None:
        """LLC writeback arrived (regular path).  Starts/refreshes
        load-misspeculation monitoring for the block."""
        self._expire(now)
        self.stats["in_writeback"] += 1
        entry = self._find(block)
        if entry is None:
            self._allocate(block, automata.EVICT, now)
        else:
            self._apply(entry, automata.WRITEBACK, now)
        if self.metrics.enabled:
            self._observe_occupancy(now)

    def on_read(self, block: int, now: int) -> None:
        """PM read arrived (regular path).  Only monitored blocks react --
        this is the eviction-based scheme's false-positive immunity."""
        self._expire(now)
        self.stats["in_read"] += 1
        entry = self._find(block)
        if entry is not None:
            self._apply(entry, automata.READ, now)

    def on_persist(self, block: int, spec_id: int, core_id: int,
                   now: int) -> None:
        """Persist-path store arrived.  Checks both misspeculation kinds."""
        self._expire(now)
        stats = self.stats
        stats["in_persist"] += 1
        entry = self._find(block)
        if entry is not None:
            if entry.state == automata.SPECULATED:
                # WriteBack - Read - Persist: the read was stale (§5.1.4).
                stats["load_misspeculations"] += 1
                if self.trace.enabled:
                    self._trace_transition(block, entry.state,
                                           automata.MISSPECULATION, now,
                                           spec_id=spec_id)
                self.report(MisspeculationEvent(
                    kind="load", block=block, core_id=core_id, time=now,
                    spec_id=spec_id, persist_time=now))
                self._deallocate(entry)
                if self.metrics.enabled:
                    self._observe_occupancy(now)
                return
            if (spec_id and entry.spec_id
                    and spec_id < entry.spec_id):
                # A lower spec-ID after a higher one: the happens-before
                # (lock) order was violated in PM (§5.2.2).
                stats["store_misspeculations"] += 1
                if self.trace.enabled:
                    self._trace_transition(block, entry.state,
                                           automata.MISSPECULATION, now,
                                           spec_id=spec_id)
                self.report(MisspeculationEvent(
                    kind="store", block=block, core_id=core_id, time=now,
                    spec_id=spec_id, persist_time=now))
                self._deallocate(entry)
                if self.metrics.enabled:
                    self._observe_occupancy(now)
                return
            if spec_id:
                entry.spec_id = max(entry.spec_id, spec_id)
                entry.inserted = now
            else:
                self._apply(entry, automata.PERSIST, now)
            if self.metrics.enabled:
                self._observe_occupancy(now)
            return
        if spec_id:
            self._allocate(block, automata.INITIAL, now, spec_id=spec_id)
        if self.metrics.enabled:
            self._observe_occupancy(now)

    # ------------------------------------------------------------- queries

    def occupancy(self, now: int) -> int:
        self._expire(now)
        return len(self._entries)

    def entries(self) -> List[SpecBufferEntry]:
        return list(self._entries)

    def state_of(self, block: int, now: int) -> str:
        self._expire(now)
        entry = self._find(block)
        return entry.state if entry is not None else automata.INITIAL

    # ---------------------------------------------------------- snapshotting

    def capture_state(self) -> dict:
        # Entry order matters: _find scans linearly and _expire keeps
        # order, so the restored list must match exactly.
        return {"entries": [{"block": entry.block, "state": entry.state,
                             "spec_id": entry.spec_id,
                             "inserted": entry.inserted}
                            for entry in self._entries],
                "stats": self.stats.capture_state()}

    def restore_state(self, state: dict) -> None:
        self._entries = [
            SpecBufferEntry(entry["block"], entry["state"],
                            entry["inserted"], entry["spec_id"])
            for entry in state["entries"]]
        self.stats.restore_state(state["stats"])
