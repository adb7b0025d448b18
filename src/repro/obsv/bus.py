"""The structured event bus: versioned JSON-Lines lifecycle telemetry.

Every sweep, campaign, and snapshot operation the harness performs can
be narrated as a stream of small, schema-versioned JSON events --
``sweep_start``, ``spec_finish``, ``trial_finish``,
``snapshot_restore``, ``oracle_violation``, ... -- each carrying the
active :mod:`repro.telemetry` run context (``run_id``/``spec_hash``)
as correlation IDs plus a bus-assigned monotonic ``seq`` so a merged
log is totally ordered.

Two implementations share one interface (the same null-object
pattern as :class:`repro.sim.trace.Tracer`):

* :class:`NullBus` -- the default everywhere; ``enabled`` is ``False``
  and ``emit`` is a no-op, so instrumented sites pay one attribute
  load when observability is off.
* :class:`EventBus` -- the in-process hub: stamps events, fans them
  out to subscribers (a :class:`JsonlSink`, or any callable taking
  the event dict).  A pool worker runs one too, collecting its task's
  events into the task's reply; the parent adopts them with
  :meth:`EventBus.merge`, which re-stamps the global ``seq`` and keeps
  the worker's own as ``worker_seq`` (see :mod:`repro.harness.pool`).

Emission never touches the simulator: events are wall-clock-side
bookkeeping, so an enabled bus cannot perturb ``SimResult`` payloads
or snapshot fingerprints.

The module-level *current bus* (:func:`get_bus` / :func:`bus_scope`)
is how deep call sites (snapshot restores inside pool workers, the
campaign engine) find the active bus without threading it through
every signature -- mirroring :func:`repro.telemetry.run_context`.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, TextIO

from ..telemetry import current_context, get_logger

log = get_logger("obsv.bus")

#: Version of the event payload written to JSON-Lines logs.  Bump when
#: required fields are added/renamed/removed; ``validate_events`` checks
#: it so consumers fail fast on a log they cannot interpret.
EVENT_SCHEMA_VERSION = 1

#: Required per-kind payload fields (beyond the envelope).  This is the
#: machine-readable half of the schema; docs/OBSERVABILITY.md is the
#: prose half.  An event log containing an unknown kind or missing a
#: required field fails validation.
EVENT_KINDS: Dict[str, tuple] = {
    # -- sweeps (ParallelExecutor.run)
    "sweep_start": ("n_specs", "jobs"),
    "sweep_finish": ("n_specs", "cache_hits", "cache_misses",
                     "retries", "elapsed_s"),
    "spec_start": ("index", "describe"),
    "spec_finish": ("index", "describe", "elapsed_s", "cache_hit",
                    "retried", "source"),
    "spec_error": ("index", "describe", "error"),
    # -- generic fan-out (ParallelExecutor.map)
    "task_start": ("index", "label"),
    "task_finish": ("index", "label", "elapsed_s"),
    "task_error": ("index", "label", "error"),
    # -- batched fan-out (ParallelExecutor.map_batched): one pair per
    #    shipped (group, chunk) task rather than one per item.
    "batch_start": ("index", "label", "size"),
    "batch_finish": ("index", "label", "size", "elapsed_s"),
    # -- retry/recovery (repro.harness.pool): one task_retry per
    #    re-execution, one task_quarantine when a poison task exhausts
    #    its policy and is set aside instead of sinking the pool.
    "task_retry": ("label", "attempt", "delay_s", "error"),
    "task_quarantine": ("label", "attempts", "error"),
    # -- work-stealing pool (repro.harness.pool): an idle worker
    #    took a task from the tail of the busiest peer's queue.
    "steal": ("thief", "victim", "label"),
    # -- graceful shutdown: a SIGINT/SIGTERM stopped a CLI command
    #    mid-flight; partial artifacts were flushed.
    "interrupted": ("signal_name", "command"),
    # -- crash campaigns (repro.validation.campaign)
    "campaign_start": ("workloads", "designs", "planner", "fault",
                       "budget"),
    "campaign_finish": ("cells", "trials", "failures", "consistent",
                        "elapsed_s"),
    "cell_profile": ("workload", "design", "total_cycles"),
    "round_start": ("round", "rounds", "n_trials"),
    "trial_finish": ("workload", "design", "crash_cycle", "consistent",
                     "violations", "restored_from_cycle"),
    "oracle_violation": ("workload", "design", "crash_cycle",
                         "violation_kind", "cycle"),
    "shrink_finish": ("workload", "design", "earliest_cycle",
                      "minimal_cycle", "trials"),
    # -- durable-state enumeration (repro.crashstates.checker): one
    #    image_enumerated per checked crash cycle, one image_check per
    #    enumerated image.  Optional ``source`` on image_check says how
    #    the verdict was reached -- "judged" (mutated, recovered and
    #    validated now) or "memo" (the cell already judged the same
    #    kept-record set at another crash cycle).
    "image_enumerated": ("workload", "design", "crash_cycle", "n_images",
                         "truncated", "model"),
    "image_check": ("workload", "design", "crash_cycle", "consistent",
                    "n_violations"),
    # -- snapshots (repro.snapshot.manager)
    "rung_capture": ("cycle", "rung"),
    # Optional fields: ``source`` says where the trial started --
    # "forward" (the cell's live run, continued), "store" (a rung read
    # from disk), "cold" (a fresh build); campaigns no longer emit
    # "resident", as they keep no rung bytes in memory.
    # ``outcome="cold_fallback"`` (+ ``error``) marks a trial whose
    # rung lookup hit a damaged store.  ``rung_cycle`` is the nearest
    # usable rung whichever start was taken.
    "snapshot_restore": ("crash_cycle", "rung_cycle", "rung"),
    # -- free-form marker (CLI open/close notes)
    "note": ("text",),
}

#: Envelope fields every event carries, stamped by the bus.
ENVELOPE_FIELDS = ("schema", "seq", "ts", "kind", "run_id", "spec_hash",
                   "origin")


class Bus:
    """Interface + null behaviour: subclasses override to record.

    ``enabled`` is a class attribute so the guard at instrumented
    sites is a plain attribute load (the tracer/metrics convention).
    """

    enabled = False

    def emit(self, kind: str, **fields) -> Optional[Dict]:
        """Emit one event; returns the stamped event (None when off)."""
        return None

    def subscribe(self, callback: Callable[[Dict], None]) -> None:
        """No-op on the null bus (nothing will ever be delivered)."""

    def unsubscribe(self, callback: Callable[[Dict], None]) -> None:
        """No-op on the null bus."""


class NullBus(Bus):
    """The zero-overhead default: drops everything."""

    __slots__ = ()


#: Shared do-nothing instance.
NULL_BUS = NullBus()


class EventBus(Bus):
    """In-process hub: stamps the envelope and fans out to subscribers.

    Thread-safe for ``emit`` (the sequence counter and subscriber list
    are lock-protected); subscriber callbacks run inline on the
    emitting thread, so they must be cheap and must not raise -- a
    raising subscriber is unsubscribed and logged rather than allowed
    to sink the run.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.time):
        self._clock = clock
        self._lock = threading.Lock()
        self._seq = 0
        self._subscribers: List[Callable[[Dict], None]] = []
        self.emitted = 0

    # ---------------------------------------------------- subscriptions

    def subscribe(self, callback: Callable[[Dict], None]) -> None:
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Dict], None]) -> None:
        with self._lock:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

    # --------------------------------------------------------- emission

    def emit(self, kind: str, **fields) -> Dict:
        context = current_context()
        event = {
            "schema": EVENT_SCHEMA_VERSION,
            "kind": kind,
            "run_id": context["run_id"],
            "spec_hash": context["spec_hash"],
            "origin": os.getpid(),
        }
        event.update(fields)
        return self._deliver(event)

    def merge(self, event: Dict) -> Dict:
        """Adopt an event a pool worker's bus stamped: keep its payload,
        context, origin pid and ``ts``, keep the worker's ``seq`` as
        ``worker_seq``, and stamp the next *global* ``seq``.  Merging a
        worker's events in the order it emitted them keeps that order
        in the merged log."""
        return self._deliver(dict(event, worker_seq=event["seq"]))

    def _deliver(self, event: Dict) -> Dict:
        with self._lock:
            event["seq"] = self._seq
            self._seq += 1
            event.setdefault("ts", round(self._clock(), 6))
            subscribers = list(self._subscribers)
            self.emitted += 1
        dead = []
        for callback in subscribers:
            try:
                callback(event)
            except Exception:  # noqa: BLE001 -- observability must not
                log.exception("event subscriber failed; unsubscribing")
                dead.append(callback)
        for callback in dead:
            self.unsubscribe(callback)
        return event


# ----------------------------------------------------------- current bus


_current_bus: Bus = NULL_BUS


def get_bus() -> Bus:
    """The process-current bus (the shared :data:`NULL_BUS` when
    observability is off)."""
    return _current_bus


def set_bus(bus: Optional[Bus]) -> Bus:
    """Install ``bus`` as the process-current bus; returns the previous
    one.  ``None`` restores the null bus."""
    global _current_bus
    previous = _current_bus
    _current_bus = bus if bus is not None else NULL_BUS
    return previous


@contextlib.contextmanager
def bus_scope(bus: Bus) -> Iterator[Bus]:
    """Scope the process-current bus (the CLI wraps each command)."""
    previous = set_bus(bus)
    try:
        yield bus
    finally:
        set_bus(previous)


# ------------------------------------------------------------ JSONL sink


class JsonlSink:
    """Bus subscriber writing one JSON object per line.

    Lines are flushed per event so a crashed run leaves a readable
    prefix; ``sort_keys`` keeps the envelope diffable.
    """

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._handle: Optional[TextIO] = open(path, "w")
        self.written = 0

    def __call__(self, event: Dict) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(event, sort_keys=True,
                                      separators=(",", ":")))
        self._handle.write("\n")
        self._handle.flush()
        self.written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ------------------------------------------------------------ validation


def read_event_log(path: str) -> List[Dict]:
    """Parse a JSON-Lines event log into a list of event dicts."""
    events = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: not valid JSON: {exc}") from None
    return events


def validate_events(events: List[Dict]) -> List[str]:
    """Schema-check an event stream; returns problems (empty == valid).

    Checks the envelope (schema version, required fields, strictly
    increasing ``seq`` -- the "single ordered log" property) and each
    kind's required payload fields.
    """
    problems: List[str] = []
    last_seq = None
    for index, event in enumerate(events):
        where = f"event[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if event.get("schema") != EVENT_SCHEMA_VERSION:
            problems.append(
                f"{where}: schema {event.get('schema')!r} != "
                f"{EVENT_SCHEMA_VERSION}")
        for field in ENVELOPE_FIELDS:
            if field not in event:
                problems.append(f"{where}: missing envelope field "
                                f"{field!r}")
        kind = event.get("kind")
        if kind not in EVENT_KINDS:
            problems.append(f"{where}: unknown kind {kind!r}")
        else:
            for field in EVENT_KINDS[kind]:
                if field not in event:
                    problems.append(
                        f"{where}: kind {kind!r} missing field "
                        f"{field!r}")
        seq = event.get("seq")
        if isinstance(seq, int):
            if last_seq is not None and seq <= last_seq:
                problems.append(
                    f"{where}: seq {seq} not greater than previous "
                    f"{last_seq} (log not ordered)")
            last_seq = seq
        else:
            problems.append(f"{where}: seq missing or not an int")
    return problems


def validate_event_log(path: str) -> List[str]:
    """Parse + validate a JSON-Lines event log file."""
    try:
        events = read_event_log(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    return validate_events(events)
