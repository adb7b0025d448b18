"""Canonical persist-event histories for the validation oracle.

The cycle-domain tracer records everything the persist-order oracle
needs -- PMC acceptance instants, speculation-buffer automaton
transitions, per-core FASE lifecycle spans -- but as renderer-oriented
Chrome trace tuples.  This module normalises that stream into typed
:class:`HistoryEvent` records the oracle replays, and provides small
constructors for hand-crafting known-bad histories in tests (the
fixtures the oracle's own regression suite is built from).

Event kinds mirror the PMC's three input classes (§5.1: ``WriteBack``,
``Read``, ``Persist`` messages) plus two observability-only kinds:
``detection`` (the speculation buffer reached ``Misspeculation`` for a
block, i.e. the hardware caught the violation) and ``fase`` (one
attempt of a FASE on a core, with its outcome).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from ..sim.trace import PHASE_COMPLETE

WRITEBACK = "writeback"
READ = "read"
PERSIST = "persist"
DETECTION = "detection"
FASE = "fase"
FLUSH = "flush"
FENCE = "fence"

KINDS = (WRITEBACK, READ, PERSIST, DETECTION, FASE, FLUSH, FENCE)


class HistoryEvent(NamedTuple):
    """One normalised event of a persist history.

    ``cycle`` is the event's time in core cycles: PMC *acceptance* time
    for writebacks/persists, arrival time for reads, detection time for
    detections, and the attempt's start for FASE spans (whose ``end``
    carries the completion cycle).

    A ``NamedTuple`` rather than a frozen dataclass: campaigns build one
    instance per traced PMC event, and tuple construction is what keeps
    :func:`events_to_history` off the profile.  ``kind`` is trusted to
    be one of :data:`KINDS` -- build events through the constructors
    below rather than by hand.
    """

    kind: str
    cycle: int
    block: Optional[int] = None
    core: Optional[int] = None
    spec_id: int = 0
    fase: Optional[int] = None
    outcome: str = ""
    attempt: int = 1
    end: Optional[int] = None

    def to_dict(self) -> Dict:
        return dict(self._asdict())


# ----------------------------------------------------- test constructors


def writeback(block: int, cycle: int) -> HistoryEvent:
    """An LLC writeback accepted by the PMC (starts monitoring)."""
    return HistoryEvent(WRITEBACK, cycle, block=block)


def read(block: int, cycle: int) -> HistoryEvent:
    """A regular-path PM read arriving at the PMC."""
    return HistoryEvent(READ, cycle, block=block)


def persist(block: int, cycle: int, core: int = 0,
            spec_id: int = 0) -> HistoryEvent:
    """A persist-path store accepted by the PMC (spec-ID optional)."""
    return HistoryEvent(PERSIST, cycle, block=block, core=core,
                        spec_id=spec_id)


def detection(block: int, cycle: int, spec_id: int = 0) -> HistoryEvent:
    """The speculation buffer flagged the block at ``cycle`` -- the
    hardware detected (and the runtime will recover) the violation."""
    return HistoryEvent(DETECTION, cycle, block=block, spec_id=spec_id)


def flush(block: int, cycle: int, core: int = 0) -> HistoryEvent:
    """An explicit cache-line flush (clwb-class) accepted at ``cycle``.

    Ordering-only: the durable-state models use flush instants to
    attribute a device-level writeback to the core (and hence the open
    epoch) that flushed it.  The persist-order oracle ignores them.
    """
    return HistoryEvent(FLUSH, cycle, block=block, core=core)


def fence(core: int, cycle: int) -> HistoryEvent:
    """A durability fence (sfence/dfence/spec-barrier) retired at
    ``cycle`` on ``core``.  Ordering-only, like :func:`flush`."""
    return HistoryEvent(FENCE, cycle, core=core)


def fase_span(core: int, fase: int, start: int, end: int,
              outcome: str = "commit", attempt: int = 1) -> HistoryEvent:
    """One attempt of FASE ``fase`` on ``core`` over ``[start, end]``."""
    if end < start:
        raise ValueError("FASE span ends before it starts")
    return HistoryEvent(FASE, start, core=core, fase=fase,
                        outcome=outcome, attempt=attempt, end=end)


# ----------------------------------------------------------- extraction


def history_from_recorder(recorder) -> List[HistoryEvent]:
    """Normalise a :class:`repro.sim.TraceRecorder`'s buffered events.

    Only the event classes the oracle understands are kept; everything
    else (counters, persist-path latency spans, non-misspeculation
    automaton transitions) is presentation-only and skipped.  The
    returned list preserves recording order, which for per-core events
    is that core's issue order -- the stream order the intra-thread
    check relies on.
    """
    return events_to_history(recorder.events())


def events_to_history(events) -> List[HistoryEvent]:
    """:func:`history_from_recorder` over raw recorder tuples.

    The mapping is stateless per event, so a history may be assembled
    piecewise: ``events_to_history(a) + events_to_history(b)`` equals
    ``events_to_history(a + b)``.  The resident campaign path relies on
    this to extend one converted prefix across the trials of a live
    run, and to keep it when the run restarts from a later rung.
    """
    history: List[HistoryEvent] = []
    append = history.append
    # HistoryEvent is constructed directly (not via the constructors
    # above): this loop runs once per traced event per trial, and the
    # extra call frame per event was measurable at campaign scale.
    for phase, track, name, cat, ts, dur, args in events:
        args = args or {}
        if cat == "pmc":
            if name == "writeback-accept":
                append(HistoryEvent(WRITEBACK, ts, args["block"]))
            elif name == "pm-read":
                append(HistoryEvent(READ, ts, args["block"]))
            elif name == "persist-accept":
                append(HistoryEvent(PERSIST, ts, args["block"],
                                    args.get("core", 0),
                                    args.get("spec_id", 0)))
        elif cat == "order":
            if name == "flush":
                append(HistoryEvent(FLUSH, ts, args["block"],
                                    args.get("core", 0)))
            elif name == "fence":
                append(HistoryEvent(FENCE, ts, core=args.get("core", 0)))
        elif cat == "spec-buffer" and name.endswith("->Misspeculation"):
            append(HistoryEvent(DETECTION, ts, args["block"],
                                spec_id=args.get("spec_id", 0)))
        elif (cat == "fase" and phase == PHASE_COMPLETE
                and track.startswith("core")):
            append(HistoryEvent(FASE, ts, core=int(track[len("core"):]),
                                fase=args.get("fase", -1),
                                outcome=args.get("outcome", ""),
                                attempt=args.get("attempt", 1),
                                end=ts + dur))
    return history


def truncate_history(history: List[HistoryEvent],
                     horizon: int) -> List[HistoryEvent]:
    """Drop events that had not *happened* by cycle ``horizon``.

    A power cut at ``horizon`` makes later-accepted writebacks/persists
    never durable (their device updates were still scheduled), so the
    oracle must not reason about them.  FASE spans are kept whenever
    they were *recorded* (attempt completion is what the tracer logs, so
    a span in the buffer always finished before the crash; its nominal
    ``end`` may exceed the crash cycle by the tracer's 1-cycle minimum
    span width).
    """
    return [event for event in history
            if event.kind == FASE or event.cycle <= horizon]


def durable_prefix_at(history: List[HistoryEvent],
                      cycle: int) -> List[HistoryEvent]:
    """The point-event prefix that had *happened* by ``cycle``, inclusive.

    A fence retiring exactly at the crash cycle counts as retired, and a
    persist accepted exactly at the crash cycle counts as durable (ADR:
    acceptance is the durability point, §8.1) -- hence ``<=``, matching
    :func:`truncate_history` and the speculation window's own inclusive
    boundary (``now - inserted >= window`` expires the entry).  FASE
    spans are interval events, not point events, and are excluded; use
    :func:`truncate_history` when spans should ride along.
    """
    return [event for event in history
            if event.kind != FASE and event.cycle <= cycle]


def history_from_dicts(rows) -> List[HistoryEvent]:
    """Rebuild a typed history from ``HistoryEvent.to_dict()`` rows.

    The loader for JSON litmus fixtures (``tests/crashstates/litmus/``):
    each row is a mapping with at least ``kind`` and ``cycle``; the
    remaining fields default exactly as on :class:`HistoryEvent`.
    """
    events: List[HistoryEvent] = []
    for row in rows:
        kind = row["kind"]
        if kind not in KINDS:
            raise ValueError(f"unknown history event kind: {kind!r}")
        events.append(HistoryEvent(
            kind, row["cycle"], block=row.get("block"),
            core=row.get("core"), spec_id=row.get("spec_id", 0),
            fase=row.get("fase"), outcome=row.get("outcome", ""),
            attempt=row.get("attempt", 1), end=row.get("end")))
    return events
