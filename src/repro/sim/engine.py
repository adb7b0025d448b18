"""Process-based discrete-event simulation kernel.

This is the substrate every timing model in the reproduction runs on.  It
is a deliberately small re-implementation of the SimPy programming model:

* an :class:`Environment` owns simulated time and the pending-event
  queue,
* a :class:`Process` wraps a Python generator; each value the generator
  yields is an :class:`Event` the process waits on,
* :meth:`Environment.timeout` produces delay events, :meth:`Environment.event`
  produces manually-triggered ones, and :class:`AllOf` joins several,
* :meth:`Environment.schedule_at` is the allocation-free fast path: it fires
  a bare callback at an absolute cycle without creating an :class:`Event`,
* :meth:`Environment.abandon` gives up a launched run that was cut
  mid-flight, so that reference counting can free it.

Simulated time is a plain integer.  Throughout the repository one time
unit is one CPU cycle at 2 GHz (0.5 ns) -- see
:class:`repro.harness.configs.SystemConfig`.

The pending-event queue
-----------------------
The queue is a calendar of per-cycle FIFO buckets, fused into the
environment: :meth:`Environment._schedule` and
:meth:`Environment.schedule_at` push, :meth:`Environment.run` pops.  A
dict maps each pending cycle to its bucket (a list of :class:`Event` or
bare callables, in push order), and a binary heap holds the *distinct*
cycles not yet opened.  The loop calls each item it pops; calling an
:class:`Event` fires it.  Pushing into a populated cycle is a list
append; the heap is touched once per populated cycle, not once per
event (the machine's wakeups cluster on shared cycles: ~2.1 events per
populated cycle on the Figure 9 grid).

The bucket being drained stays in the dict under its cycle until the
loop moves past it, so an item pushed for the cycle being drained lands
behind the drain cursor.  The total order is therefore: ascending
cycle, then push order within a cycle -- the kernel's only
tie-breaking rule and its determinism contract.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from .metrics import NULL_METRICS, Metrics
from .trace import NULL_TRACER, Tracer


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, stepping an empty queue,
    scheduling into the past...)."""


# -------------------------------------------------------------------- events


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* with an optional value; all registered
    callbacks then run at the trigger time.  Triggering twice is an error
    -- use a fresh event per occurrence.
    """

    __slots__ = ("env", "callbacks", "_value", "_triggered", "_scheduled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._triggered = False
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event now (schedules callbacks at the current time)."""
        if self._triggered or self._scheduled:
            raise SimulationError("event triggered twice")
        self._value = value
        self._scheduled = True
        self.env._schedule(self, 0)
        return self

    def _fire(self) -> None:
        self._triggered = True
        # A fired event runs late callbacks at once (add_callback), so
        # its list is never appended to again: leave a shared empty
        # tuple, not a fresh list per event.
        callbacks, self.callbacks = self.callbacks, ()
        for callback in callbacks:
            callback(self)

    # A queued event fires when the loop calls it, like the bare
    # callables beside it in the queue: no type test per item.
    __call__ = _fire

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires (immediately if fired)."""
        if self._triggered:
            callback(self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._scheduled = True
        env._schedule(self, delay)


class AllOf(Event):
    """Fires once every child event has fired; value is the list of values."""

    __slots__ = ("_pending", "_children")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    @property
    def children(self) -> List[Event]:
        return list(self._children)

    def _on_child(self, _event: Event) -> None:
        self._pending -= 1
        if self._pending == 0 and not (self._triggered or self._scheduled):
            self.succeed([child.value for child in self._children])


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running generator; the Process is itself an event that fires when
    the generator returns (value = the generator's return value)."""

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: str = ""):
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off on the next scheduling round at the current time.
        start = Event(env)
        start.add_callback(self._resume)
        start.succeed()

    def _resume(self, event: Event) -> None:
        # Callbacks run only once ``event`` has fired, so its value is
        # set: read the slot, not the checking property.
        try:
            target = self._generator.send(event._value)
        except StopIteration as stop:
            if not (self._triggered or self._scheduled):
                self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, not an Event")
        # ``target.add_callback(self._resume)``, inlined: once per yield.
        if target._triggered:
            self._resume(target)
        else:
            target.callbacks.append(self._resume)


# --------------------------------------------------------------- environment


class Environment:
    """Owns the clock and the pending-event queue and drives the
    simulation.

    The queue is the calendar described in the module docstring; its
    state is five attributes: ``_buckets`` (cycle -> FIFO list),
    ``_cycles`` (heap of the bucketed cycles not yet opened), and the
    drain cursor -- ``_drain`` (the bucket being drained, still in
    ``_buckets`` under ``_drain_cycle``) and ``_cursor`` (the index of
    its next item).

    Also the anchor for observability: every component reachable from
    the environment shares its ``trace`` (:class:`~repro.sim.trace.Tracer`)
    and ``metrics`` (:class:`~repro.sim.metrics.Metrics`).  Both default
    to the shared null singletons, so an uninstrumented run pays one
    ``enabled`` attribute check per guarded site and nothing more.
    """

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[Metrics] = None) -> None:
        self.now: int = 0
        self.trace: Tracer = NULL_TRACER if tracer is None else tracer
        self.metrics: Metrics = (NULL_METRICS if metrics is None
                                 else metrics)
        self._buckets: Dict[int, list] = {}
        self._cycles: List[int] = []
        self._drain: list = []
        self._drain_cycle = -1
        self._cursor = 0
        # Counts every push (events *and* bare callbacks).  Part of the
        # snapshot payload, outside its fingerprint: never architectural
        # state, but a restored run numbers its pushes on from it.
        self._sequence = 0

    # ------------------------------------------------------------ scheduling

    def _schedule(self, event: Event, delay: int) -> None:
        self._sequence += 1
        when = self.now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [event]
            heappush(self._cycles, when)
        else:
            bucket.append(event)

    def schedule_at(self, when: int, callback: Callable[[], None]) -> None:
        """Run a bare callback at absolute cycle ``when`` (>= now).

        This is the allocation-free fast path for component wakeups: no
        :class:`Event` or tuple is created per hop -- the callable goes
        straight into the queue and is invoked with no arguments when
        its cycle comes up.  Use :meth:`event` + callbacks only when some
        other party needs to *wait* on the occurrence.
        """
        if when < self.now:
            raise SimulationError(
                f"schedule_at into the past: {when} < {self.now}")
        self._sequence += 1
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [callback]
            heappush(self._cycles, when)
        else:
            bucket.append(callback)

    # ------------------------------------------------------- event factories

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int) -> Timeout:
        return Timeout(self, int(delay))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def abandon(self, launch: Event) -> None:
        """Give up a launched run for good.

        ``launch`` is a :class:`Process`, or an :class:`AllOf` joining
        processes (``System.launch``'s all-done event).  Each process's
        generator is closed, so its frame lets go of the event it waits
        on; the callbacks waiting on the processes and on ``launch`` are
        dropped, and none of them will fire; the queue is emptied, since
        every pending item belongs to the run given up.  The clock
        stays: restore a state into the environment, or drop it.

        A run cut mid-flight is otherwise a web of cycles (process ->
        generator -> frame -> awaited event -> the process's resume
        callback; process -> join callback -> join -> process; queued
        event -> environment -> queue) left for the cyclic collector.
        After this call, reference counting frees it.
        """
        events = [launch]
        if isinstance(launch, AllOf):
            events += launch._children
            launch._children = []
        for event in events:
            if isinstance(event, Process):
                event._generator.close()
            if not event._triggered:
                # Marked scheduled: a stray wakeup of a closed process
                # finishes its generator but never fires the process.
                event._scheduled = True
                event.callbacks = []
        self._empty_queue()

    # ------------------------------------------------------------ the loop

    def peek(self) -> Optional[int]:
        """Cycle of the next pending item, or None when the queue is
        empty.  O(1)."""
        if self._cursor < len(self._drain):
            return self._drain_cycle
        return self._cycles[0] if self._cycles else None

    def pending(self) -> int:
        """Number of pending items (0 == quiesced).  Walks the buckets:
        meant for quiesce checks, not for per-event use."""
        return sum(map(len, self._buckets.values())) - self._cursor

    def _open_next(self) -> None:
        """Retire the drained bucket and open the earliest pending one,
        advancing the clock to its cycle."""
        when = heappop(self._cycles)
        self._buckets.pop(self._drain_cycle, None)
        self._drain = self._buckets[when]
        self._drain_cycle = when
        self._cursor = 0
        self.now = when

    def step(self) -> None:
        """Fire the single earliest pending item (advancing ``now``).

        Raises :class:`SimulationError` when nothing is pending -- an
        empty queue is a legitimate simulation state, so callers that are
        not sure should guard with :meth:`peek`.
        """
        if self.peek() is None:
            raise SimulationError(
                "step() called with no pending events (guard with peek())")
        if self._cursor == len(self._drain):
            self._open_next()
        drain = self._drain
        item = drain[self._cursor]
        drain[self._cursor] = None
        self._cursor += 1
        item()

    def run(self, until: Optional[int] = None,
            stop_event: Optional[Event] = None) -> int:
        """Drain the pending-event queue; returns the final simulated time.

        Semantics, exhaustively:

        * With no arguments, runs until the queue is completely empty.
        * ``until=T`` stops *before* firing the first item scheduled past
          ``T`` and sets ``now = T`` exactly (the queue keeps the unfired
          items; a later ``run`` call resumes them).  Items *at* ``T``
          still fire.
        * ``stop_event=e`` returns as soon as ``e`` has fired, checked
          before every item; items already scheduled for the same cycle
          but after ``e``'s trigger remain queued.
        * Both bounds may be combined; whichever trips first wins.

        The pop is fused in: the loop walks the drain bucket by index
        and touches the cycle heap only to open the next bucket.  The
        cursor is stored back before each item fires, so the queue
        reads the same from inside a callback as from outside the loop.
        """
        buckets = self._buckets
        cycles = self._cycles
        drain = self._drain
        cursor = self._cursor
        while stop_event is None or not stop_event._triggered:
            if cursor < len(drain):
                item = drain[cursor]
                # Drop the queue's reference now: a fired item must not
                # outlive its bucket (it may close over its owner).
                drain[cursor] = None
                cursor += 1
                self._cursor = cursor
                item()
                continue
            if not cycles:
                break
            if until is not None and cycles[0] > until:
                self.now = until
                break
            # _open_next(), inlined: once per populated cycle.
            when = heappop(cycles)
            buckets.pop(self._drain_cycle, None)
            drain = self._drain = buckets[when]
            self._drain_cycle = when
            cursor = self._cursor = 0
            self.now = when
        return self.now

    # -------------------------------------------------------- snapshotting

    def capture_state(self) -> dict:
        """Snapshot the clock.  Only legal at a quiesce point: pending
        events wrap live generators/callbacks and cannot be serialised,
        so a non-empty queue is a hard error, not a silent omission."""
        pending = self.pending()
        if pending:
            from ..snapshot.store import SnapshotError
            raise SnapshotError(
                f"environment queue not empty at capture "
                f"({pending} pending events)")
        return {"now": self.now, "sequence": self._sequence}

    def restore_state(self, state: dict) -> None:
        self.now = state["now"]
        # The push counter is not architectural state; restoring it is
        # about byte-identical snapshots of the replayed run.
        self._sequence = state["sequence"]
        # Callbacks registered after the restore re-arm against an empty
        # queue at the restored ``now``.
        self._empty_queue()

    def _empty_queue(self) -> None:
        """Drop every pending item and reset the drain cursor (it keeps
        the bucket of the last drained cycle)."""
        self._buckets = {}
        self._cycles = []
        self._drain = []
        self._drain_cycle = -1
        self._cursor = 0
