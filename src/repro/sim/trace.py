"""Cycle-domain tracing: typed spans/instants exported as Chrome
trace-event JSON (viewable in Perfetto / chrome://tracing).

Two implementations share one interface:

* :class:`NullTracer` -- the default everywhere.  Every method is a
  no-op and :attr:`Tracer.enabled` is ``False``, so instrumented hot
  paths guard with ``if tracer.enabled:`` and pay a single attribute
  test when tracing is off.
* :class:`TraceRecorder` -- buffers events in memory and serialises
  them with :meth:`TraceRecorder.to_dict` / :meth:`TraceRecorder.save`.

Tracks
------
Events land on named *tracks* (one Perfetto row each): ``core0`` ..
``coreN`` for the per-core FASE lifecycle, ``persist-path`` for
store-issue -> PMC-acceptance spans, ``PMC`` for controller arrivals,
and ``spec-buffer`` for speculation-buffer automaton transitions.
Tracks map to Chrome trace ``tid`` values under one ``pid``; a
``thread_name`` metadata event labels each.

Timebase
--------
The simulator's clock is integer core cycles; the Chrome format wants
microseconds.  The recorder converts at *export* time using the
``cycle_ns`` it was constructed with, so recording stays integer-only
and cheap.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

# Chrome trace event phases used here (the full format supports more).
PHASE_COMPLETE = "X"
PHASE_INSTANT = "i"
PHASE_COUNTER = "C"
PHASE_METADATA = "M"

TRACE_PID = 1


class Tracer:
    """Interface + null behaviour: subclasses override to record.

    ``enabled`` is a class attribute so the hot-path guard is a plain
    attribute load, never a method call.
    """

    enabled = False

    def instant(self, track: str, name: str, ts: int,
                args: Optional[Dict] = None, cat: str = "sim") -> None:
        """A zero-duration marker at cycle ``ts``."""

    def complete(self, track: str, name: str, ts: int, dur: int,
                 args: Optional[Dict] = None, cat: str = "sim") -> None:
        """A span covering cycles ``[ts, ts + dur]``."""


class NullTracer(Tracer):
    """The zero-overhead default: drops everything."""

    __slots__ = ()


#: Shared do-nothing instance -- components default to this so a bare
#: ``Environment()`` costs nothing extra.
NULL_TRACER = NullTracer()


class TraceRecorder(Tracer):
    """In-memory trace buffer with Chrome trace-event JSON export.

    ``max_events`` bounds memory on long runs; past it, new events are
    counted in :attr:`dropped` and discarded (the trace header reports
    the loss rather than silently truncating).
    """

    enabled = True

    def __init__(self, cycle_ns: float = 0.5,
                 max_events: int = 1_000_000):
        if cycle_ns <= 0:
            raise ValueError("cycle_ns must be positive")
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.cycle_ns = cycle_ns
        self.max_events = max_events
        self.dropped = 0
        # (phase, track, name, cat, ts_cycles, dur_cycles, args)
        self._events: List[tuple] = []
        self._tracks: Dict[str, int] = {}

    # ------------------------------------------------------------ tracks

    def track_id(self, track: str) -> int:
        """The stable ``tid`` for a track name (allocated on first use)."""
        tid = self._tracks.get(track)
        if tid is None:
            tid = len(self._tracks)
            self._tracks[track] = tid
        return tid

    @property
    def tracks(self) -> List[str]:
        return list(self._tracks)

    # --------------------------------------------------------- recording

    def _push(self, item: tuple) -> None:
        if item[1] not in self._tracks:
            self.track_id(item[1])
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append(item)

    def instant(self, track: str, name: str, ts: int,
                args: Optional[Dict] = None, cat: str = "sim") -> None:
        self._push((PHASE_INSTANT, track, name, cat, ts, 0, args))

    def complete(self, track: str, name: str, ts: int, dur: int,
                 args: Optional[Dict] = None, cat: str = "sim") -> None:
        self._push((PHASE_COMPLETE, track, name, cat, ts, dur, args))

    def __len__(self) -> int:
        return len(self._events)

    def events(self, start: int = 0) -> List[tuple]:
        """The buffered ``(phase, track, name, cat, ts, dur, args)``
        tuples in recording order -- the cycle-domain stream the
        validation oracle replays (:mod:`repro.validation.history`),
        without the unit conversion ``to_dict`` applies for renderers.
        ``start`` skips an already-processed prefix (a restored rung's
        events) without copying it."""
        return self._events[start:]

    def capture_state(self) -> Dict:
        """The event prefix rides in snapshots so a restored trial's
        oracle sees the full history from cycle 0, not just the
        replayed tail.  It is excluded from fingerprints.  Rows stay
        the recorder's own tuples: only the outer list is copied, which
        keeps per-rung ladder captures O(events) pointer copies instead
        of O(events x fields) row rebuilds."""
        return {"dropped": self.dropped,
                "events": list(self._events),
                "tracks": list(self._tracks.items())}

    def restore_state(self, state: Dict) -> None:
        self.dropped = state["dropped"]
        # Rows may arrive as lists (an older store, or a JSON round
        # trip); ``tuple()`` of a tuple returns the same object, so the
        # common tuple-row case costs one pointer copy per row.
        self._events = [tuple(item) for item in state["events"]]
        self._tracks = {name: tid for name, tid in state["tracks"]}

    # ------------------------------------------------------------ export

    def _us(self, cycles: int) -> float:
        return cycles * self.cycle_ns / 1000.0

    def to_dict(self) -> Dict:
        """The Chrome trace-event JSON document (object form)."""
        events: List[Dict] = [{
            "name": "process_name", "ph": PHASE_METADATA,
            "pid": TRACE_PID, "tid": 0,
            "args": {"name": "repro-sim"},
        }]
        for track, tid in self._tracks.items():
            events.append({
                "name": "thread_name", "ph": PHASE_METADATA,
                "pid": TRACE_PID, "tid": tid,
                "args": {"name": track},
            })
            events.append({
                "name": "thread_sort_index", "ph": PHASE_METADATA,
                "pid": TRACE_PID, "tid": tid,
                "args": {"sort_index": tid},
            })
        for phase, track, name, cat, ts, dur, args in self._events:
            event = {
                "name": name, "ph": phase, "cat": cat,
                "ts": self._us(ts), "pid": TRACE_PID,
                "tid": self._tracks[track],
            }
            if phase == PHASE_COMPLETE:
                event["dur"] = self._us(dur)
            elif phase == PHASE_INSTANT:
                event["s"] = "t"
            if args:
                event["args"] = dict(args)
            events.append(event)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {
                "cycle_ns": self.cycle_ns,
                "dropped_events": self.dropped,
            },
        }

    def save(self, path: str, indent: Optional[int] = None) -> str:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=indent)
            handle.write("\n")
        return path


def validate_trace_document(document: Dict) -> List[str]:
    """Schema-check a Chrome trace-event document; returns a list of
    problems (empty == valid).  Used by the test suite and by consumers
    that want to fail fast before handing a file to Perfetto."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        phase = event.get("ph")
        if phase == PHASE_METADATA:
            continue
        if "ts" not in event:
            problems.append(f"{where}: missing 'ts'")
        elif not isinstance(event["ts"], (int, float)):
            problems.append(f"{where}: 'ts' not numeric")
        if phase == PHASE_COMPLETE and "dur" not in event:
            problems.append(f"{where}: complete event missing 'dur'")
        if phase not in (PHASE_COMPLETE, PHASE_INSTANT, PHASE_COUNTER):
            problems.append(f"{where}: unknown phase {phase!r}")
    return problems
