"""The snapshot ladder: when and how running systems are captured.

Safe points
-----------
Core processes are Python generators, which cannot be serialised, so
capture happens only at *quiesce points* where no generator holds
interesting frame state:

* every core is **parked** at the top of its FASE loop (no open FASE,
  no held locks, no live rollback) or has finished its thread, and
* the event heap is **empty** -- every in-flight timeout, persist
  arrival and buffered-drain callback has landed.

At such a point the entire machine is plain data and
``System.capture_state()`` is exact.

Ladder policy
-------------
The ladder requests a capture every ``every`` persist events at the PM
device (the durability points -- the persisted image only changes
there, which is what makes them the natural rung spacing).  On a
request, cores park as they each reach their FASE boundary; once the
heap drains with all active cores parked, the ladder captures and
resumes everyone at the quiesce time, in core order.

Parking delays cores, so a laddered run is its own timing universe: a
run with ``every=K`` is deterministic and self-consistent, but differs
from an unladdered run.  Campaign profiling and trials therefore both
run laddered with the same ``K`` -- restored trials replay the exact
canonical execution -- and the ladder is entirely off (zero events,
zero cost) when ``every == 0``.

A capture request can be *abandoned*: if the heap drains while some
active core is blocked on a mutex (its owner parked before releasing),
waiting longer cannot help, so the ladder resumes everyone and skips
the rung.  Abandonment is deterministic, so canonical and restored
runs skip the same rungs.

Capturing is the ladder's only optional work: it reads the quiesced
machine and never changes where cores park.  So a ladder that captures
every rung (a campaign's profiling run), none (trials) or a named
subset of rung numbers (the crash-state checker) runs the identical
execution and reaches, numbers and reports the same rungs.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional, Union

from ..obsv.bus import get_bus
from .store import SnapshotStore, decode_payload, encode_payload

SNAPSHOT_SCHEMA_VERSION = 1


def nearest_rung(rungs: List[Dict], crash_cycle: int) -> Optional[Dict]:
    """The latest rung at or before ``crash_cycle`` (None: start cold)."""
    best = None
    for rung in rungs:
        if rung["cycle"] <= crash_cycle and (
                best is None or rung["cycle"] > best["cycle"]):
            best = rung
    return best


class SnapshotLadder:
    """Capture policy + park/quiesce/resume choreography for one system.

    ``capture`` says which rungs to capture: True for every rung, False
    for none, or a collection of rung numbers.  Without a ``store``
    every captured payload stays on its rung, decoded; with one, each
    is written as :func:`~repro.snapshot.store.encode_payload` bytes
    and the rung keeps only their key.

    :meth:`install` makes the system own its ladder (``system.snapshots``
    and the device's persist hook), so the ladder keeps ``system`` as a
    weak proxy: a finished laddered system forms no reference cycle.
    Whoever builds the ladder keeps the system alive while it runs.
    """

    def __init__(self, system, every: int,
                 store: Optional[SnapshotStore] = None,
                 index_name: Optional[str] = None,
                 capture: Union[bool, Iterable[int]] = True):
        if every < 0:
            raise ValueError("snapshot interval must be >= 0")
        self.system = weakref.proxy(system)
        self.every = every
        self.store = store
        self.index_name = index_name
        self.capture = (capture if isinstance(capture, bool)
                        else frozenset(capture))
        self._since_last = 0
        self._requested = False
        self._parked: Dict[int, object] = {}   # core_id -> park Event
        #: Every rung this run reached, captured or not: {"cycle", "rung"}.
        self.reached: List[Dict] = []
        #: Captured rungs: {"cycle", "rung", "fingerprint", and "key"
        #: for a stored ladder, else "payload"}.
        self.rungs: List[Dict] = []
        #: Rungs reached so far, counting those before a restore point
        #: (it rides inside every snapshot), captured or not.
        self.rungs_captured = 0
        self.rungs_abandoned = 0

    # ------------------------------------------------------------- install

    def install(self) -> "SnapshotLadder":
        """Attach to the system: the persist hook + the park hook.

        The trigger counts *device* persists rather than WPQ admissions
        because the device is the one durability point every design
        funnels through -- DPO and HOPS drain their persist buffers
        straight to the device without touching the controller's write
        queue, and a ladder keyed on WPQ admissions would never fire
        under them.
        """
        self.system.snapshots = self
        if self.every:
            self.system.device.on_persist = self._on_accept
        return self

    # ------------------------------------------------------------- trigger

    def _on_accept(self) -> None:
        if not self.every:
            return
        self._since_last += 1
        if self._since_last >= self.every:
            self._requested = True

    def park_event(self, core):
        """Called by a core at the top of its FASE loop; returns an event
        to wait on (park) or None (keep running)."""
        if not self._requested or core.held_locks:
            return None
        event = self.system.env.event()
        self._parked[core.core_id] = event
        return event

    # ------------------------------------------------------------- quiesce

    def on_heap_drained(self) -> bool:
        """The event heap emptied mid-run.  Capture if quiesced, then
        resume parked cores; returns True when cores were resumed (the
        caller should continue driving the simulation)."""
        if not self._parked:
            return False
        active = [core for core in self.system.cores
                  if core.finish_time is None]
        quiesced = all(core.core_id in self._parked for core in active)
        # Reset the trigger *before* capturing so the snapshot records
        # post-rung bookkeeping: a restored run must see a full ``every``
        # persists before parking again, exactly like the canonical run
        # continuing past this rung.
        self._requested = False
        self._since_last = 0
        if quiesced:
            rung_no = self.rungs_captured
            # Count this rung *before* capturing: the payload must say
            # the rung is done, so a restored run numbers its next rung
            # as the canonical run would.
            self.rungs_captured += 1
            self.reached.append({"cycle": self.system.env.now,
                                 "rung": rung_no})
            if (self.capture if isinstance(self.capture, bool)
                    else rung_no in self.capture):
                self._capture(rung_no)
        else:
            # A non-parked active core is blocked on a lock whose owner
            # parked first; the rung is unreachable -- skip it.
            self.rungs_abandoned += 1
        parked, self._parked = self._parked, {}
        for core_id in sorted(parked):
            parked[core_id].succeed()
        return True

    def _capture(self, rung_no: int) -> None:
        from .fingerprint import fingerprint_state
        payload = self.system.capture_state()
        rung = {"cycle": payload["cycle"], "rung": rung_no,
                "fingerprint": fingerprint_state(payload)}
        if self.store is None:
            rung["payload"] = payload
        else:
            rung["key"] = self.store.put(encode_payload(payload))
        self.rungs.append(rung)
        # Wall-side narration only: the capture itself (cycle, payload,
        # fingerprint) is already done, so an enabled bus cannot
        # perturb the rung.
        bus = get_bus()
        if bus.enabled:
            bus.emit("rung_capture", cycle=rung["cycle"], rung=rung_no)

    def flush_index(self) -> None:
        """Persist the rung index (cycle -> object key) for this ladder."""
        if self.store is None or self.index_name is None:
            return
        self.store.save_index(self.index_name, [
            {"cycle": rung["cycle"], "rung": rung["rung"],
             "fingerprint": rung["fingerprint"], "key": rung["key"]}
            for rung in self.rungs if "key" in rung])

    # -------------------------------------------------------- snapshotting

    def capture_state(self) -> dict:
        """The ladder's own bookkeeping rides inside every snapshot so a
        restored run keeps parking at the canonical rung points."""
        return {"since_last": self._since_last,
                "rungs_captured": self.rungs_captured,
                "rungs_abandoned": self.rungs_abandoned}

    def restore_state(self, state: dict) -> None:
        self._since_last = state["since_last"]
        self.rungs_captured = state["rungs_captured"]
        self.rungs_abandoned = state["rungs_abandoned"]
        self._requested = False
        self._parked = {}


def restore_nearest(system, store: SnapshotStore, index_name: str,
                    crash_cycle: int) -> Optional[Dict]:
    """Restore ``system`` from the nearest stored rung <= ``crash_cycle``.

    Returns the rung dict on success, None when no rung precedes the
    cycle.  Raises :class:`SnapshotError` on a corrupt/unreadable store
    -- the caller decides whether that is fatal or a cold start.  A
    restore is only ever for speed: the caller narrates the start it
    took, and its answer must not depend on it.
    """
    rungs = store.load_index(index_name)
    rung = nearest_rung(rungs, crash_cycle)
    if rung is None:
        return None
    system.restore_state(decode_payload(store.get(rung["key"]),
                                        rung["key"]))
    return rung
