"""The worker pool: the one place the harness starts worker processes.

Every parallel run goes through :class:`WorkStealingPool` -- the sweeps
and campaign fan-out of :class:`repro.harness.ParallelExecutor`, the
journaled ``validate --resume`` runs included.  Scheduling stays in the
parent:

* each worker owns a deque of tasks, seeded **cell-affine** -- tasks
  sharing an affinity key land on the same worker in submission order,
  so a worker can keep that cell's simulated system resident across
  its chunks;
* a worker that drains its own deque *steals from the tail* of the
  longest remaining deque (tail = the coldest chunks, so affinity is
  sacrificed last), narrated as a ``steal`` event;
* an execution fails when its task raises or its worker process dies;
  the task goes straight back to the head of its own deque (one
  ``task_retry`` event), and a task that fails all
  :data:`MAX_ATTEMPTS` executions is **quarantined**
  (``task_quarantine``) as an ``error`` outcome instead of stopping
  the pool;
* a worker exits when its parent dies: it closes the parent's ends of
  the worker pipes it inherited, so its ``recv`` sees end-of-file.

Scheduling never changes results: tasks are pure functions of their
argument, and outcomes come back in submission order.  ``workers <= 1``
(or a single task, or a platform without process pools) runs everything
inline under the same retry and quarantine rule.  Events a task emits
reach the pool's bus either way, in the order the task emitted them:
inline through the current bus, from a worker in the task's reply,
which the parent merges into its bus just before it settles the task
(under any start method).  A worker that dies loses its task's events
with its result; the retry emits its own.
"""

from __future__ import annotations

import collections
import multiprocessing
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obsv.bus import NULL_BUS, Bus, EventBus, bus_scope, get_bus, set_bus
from ..telemetry import current_context, get_logger, seed_context

log = get_logger("harness.pool")

#: The signals the CLI turns into a graceful stop.
_STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)

#: Executions per task: a failed task runs once more, at once; a second
#: failure quarantines it.  Retries never touch RNG state, so results
#: stay bit-identical whether or not a task was retried.
MAX_ATTEMPTS = 2


# ------------------------------------------------------------------ tasks


@dataclass(frozen=True)
class Task:
    """One schedulable unit: a picklable ``fn(arg)`` call.

    ``key`` is the task's identity in its outcome (the resume journal
    keys it by a content hash of ``fn`` and ``arg``); ``affinity``
    groups tasks onto the same worker (the campaign cell); ``label`` is
    display-only.
    """

    key: str
    fn: Callable
    arg: object
    affinity: object = None
    label: str = ""

    def describe(self) -> str:
        return self.label or self.key[:12]


@dataclass
class TaskOutcome:
    """What happened to one task (streamed to ``on_result`` as each
    task settles, and returned in submission order)."""

    key: str
    status: str                     # "ok" | "error"
    value: object = None
    error: str = ""
    attempts: int = 1               # 0 = settled without running
    worker: int = -1                # -1 = inline/serial
    elapsed_s: float = 0.0
    stolen: bool = False
    index: int = -1                 # position in the submitted tasks

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def error_tail(error: str, limit: int = 200) -> str:
    """The last non-blank line of a traceback string, for events."""
    lines = [line for line in str(error).strip().splitlines() if line]
    tail = lines[-1] if lines else str(error)
    return tail[:limit]


# ---------------------------------------------------------------- workers


def reset_worker_signals() -> None:
    """Restore default signal dispositions in a forked worker.

    The CLI installs SIGINT/SIGTERM handlers that raise into the
    *parent's* dispatch loop for a graceful unwind; a forked worker
    inheriting them would turn the pool's ``terminate()`` into an
    exception its task might catch, and outlive it.  Workers therefore
    go back to ``SIG_DFL`` for SIGTERM and ignore SIGINT (a Ctrl-C is
    the parent's to handle; it tears the pool down explicitly), then
    unblock both, which :meth:`_Worker.spawn` held over the fork."""
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / platform quirks
        pass
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)


def _worker_main(conn, inherited, collect: bool,
                 context_fields: Dict[str, str]) -> None:
    """Worker process body: receive one task, run it, send the reply.

    Single-buffered by design -- the parent sends the next task only
    after the previous reply lands, which is what makes parent-side
    stealing possible (undispatched work never sits in a child).
    ``inherited`` are the parent's ends of the worker pipes forked into
    this process, this worker's own included: once they are closed the
    parent holds the only copies, so its death ends ``recv`` with
    end-of-file (and ``send`` with a broken pipe) and the worker exits.

    With ``collect`` set (the pool's bus is enabled) the worker's bus
    is an :class:`EventBus` that stamps each event here -- context,
    pid, wall time, and a ``seq`` counting this worker's events -- and
    the events a task emits ride in its reply, in emission order.
    """
    for parent_end in inherited:
        parent_end.close()
    reset_worker_signals()
    events: List[Dict] = []
    bus = NULL_BUS
    if collect:
        bus = EventBus()
        bus.subscribe(events.append)
    set_bus(bus)
    seed_context(context_fields)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        seq, fn, arg = message
        start = time.perf_counter()
        try:
            reply = (seq, "ok", fn(arg))
        except Exception:
            reply = (seq, "err", traceback.format_exc())
        reply += (time.perf_counter() - start, events)
        try:
            conn.send(reply)
        except OSError:
            return
        except Exception:               # the value does not pickle
            conn.send((seq, "err", traceback.format_exc(), *reply[-2:]))
        events.clear()


class _Worker:
    """Parent-side handle: process + duplex pipe + the task in flight."""

    def __init__(self, worker_id: int, context, collect: bool, inherited):
        self.worker_id = worker_id
        self.context = context
        self.collect = collect
        self.running: Optional[int] = None      # task seq in flight
        self.started_at = 0.0
        self.stolen = False
        self.spawn(inherited)

    def spawn(self, inherited) -> None:
        """Start a fresh process on a fresh pipe.  ``inherited`` are the
        other workers' parent ends, which a forked child must close."""
        parent_end, child_end = self.context.Pipe()
        forked = self.context.get_start_method() == "fork"
        process = self.context.Process(
            target=_worker_main,
            args=(child_end, [*inherited, parent_end] if forked else [],
                  self.collect, current_context()),
            daemon=True)
        # Python drops an exception that a signal handler raises inside
        # an at-fork hook (logging registers some), so a stop signal
        # landing mid-fork would be lost: hold it until the fork is done.
        held = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        try:
            process.start()
        except BaseException:
            parent_end.close()
            raise
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
            child_end.close()
        self.process = process
        self.conn = parent_end
        self.running = None

    @property
    def idle(self) -> bool:
        return self.running is None

    def dispatch(self, seq: int, task: Task, stolen: bool) -> None:
        self.running = seq
        self.started_at = time.monotonic()
        self.stolen = stolen
        try:
            self.conn.send((seq, task.fn, task.arg))
        except OSError:
            pass    # the worker died: ``wait`` reports its pipe's EOF

    def stop(self) -> None:
        """Terminate the process if it still runs, reap it, close the
        pipe."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()
        self.running = None


# ------------------------------------------------------------------- runs


class _Run:
    """One :meth:`WorkStealingPool.run`: outcomes so far and the one
    retry-or-quarantine rule both execution modes apply."""

    def __init__(self, tasks: List[Task], bus: Bus, on_result):
        self.tasks = tasks
        self.bus = bus
        self.on_result = on_result
        self.outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        self.attempts = [0] * len(tasks)
        self.settled = 0

    @property
    def done(self) -> bool:
        return self.settled == len(self.tasks)

    def succeed(self, seq: int, value, elapsed: float, worker: int = -1,
                stolen: bool = False) -> None:
        self.attempts[seq] += 1
        self._settle(TaskOutcome(
            key=self.tasks[seq].key, status="ok", value=value,
            attempts=self.attempts[seq], worker=worker,
            elapsed_s=elapsed, stolen=stolen, index=seq))

    def fail(self, seq: int, error: str, elapsed: float,
             worker: int = -1) -> bool:
        """Count one failed execution of task ``seq``.  Returns whether
        it runs again; after :data:`MAX_ATTEMPTS` it is quarantined
        (settled as an error) instead."""
        self.attempts[seq] += 1
        attempts = self.attempts[seq]
        label = self.tasks[seq].describe()
        if attempts < MAX_ATTEMPTS:
            self.bus.emit("task_retry", label=label, attempt=attempts + 1,
                          delay_s=0.0, error=error_tail(error))
            return True
        self.bus.emit("task_quarantine", label=label, attempts=attempts,
                      error=error_tail(error))
        log.warning("task %s quarantined after %d attempt(s): %s",
                    label, attempts, error_tail(error))
        self._settle(TaskOutcome(
            key=self.tasks[seq].key, status="error", error=error,
            attempts=attempts, worker=worker, elapsed_s=elapsed,
            index=seq))
        return False

    def _settle(self, outcome: TaskOutcome) -> None:
        self.outcomes[outcome.index] = outcome
        self.settled += 1
        if self.on_result is not None:
            self.on_result(outcome)


# ------------------------------------------------------------------- pool


class WorkStealingPool:
    """Run a batch of :class:`Task` with stealing, retry, quarantine.

    ``workers`` is the process count (``<= 1`` runs inline); ``bus``
    pins the event bus (default: the ambient
    :func:`repro.obsv.get_bus` at each :meth:`run`).
    """

    def __init__(self, workers: int = 1, bus: Optional[Bus] = None):
        self.workers = max(1, workers)
        self.bus = bus

    def _resolve_bus(self) -> Bus:
        return self.bus if self.bus is not None else get_bus()

    # ------------------------------------------------------------- plan

    def plan_deques(self, tasks: Sequence[Task], workers: int
                    ) -> List[collections.deque]:
        """Cell-affine initial assignment: affinity groups round-robin
        onto workers in first-appearance order, tasks within a group
        staying in submission order on one deque.  Deterministic, so
        identical inputs produce identical initial placement."""
        groups: Dict[object, List[int]] = {}
        for seq, task in enumerate(tasks):
            groups.setdefault(task.affinity, []).append(seq)
        deques = [collections.deque() for _ in range(workers)]
        for slot, indices in enumerate(groups.values()):
            deques[slot % workers].extend(indices)
        return deques

    def _pick(self, worker_id: int, deques
              ) -> Optional[Tuple[int, Optional[int]]]:
        """``(seq, victim)`` for an idle worker: the head of its own
        deque (``victim`` None), else the tail of the longest other
        deque; ``None`` when every deque is empty."""
        own = deques[worker_id]
        if own:
            return own.popleft(), None
        victim = max(range(len(deques)), key=lambda i: len(deques[i]))
        if not deques[victim]:
            return None
        return deques[victim].pop(), victim

    # -------------------------------------------------------------- run

    def run(self, tasks: Sequence[Task],
            on_result: Optional[Callable[[TaskOutcome], None]] = None
            ) -> List[TaskOutcome]:
        """Execute every task; outcomes return in submission order.

        ``on_result`` fires in the parent in *settlement* order as each
        task finishes (the resume journal records outcomes from it, so
        a kill loses at most the in-flight tasks); an exception it
        raises stops the run.  The pool never raises for a task
        failure -- exhausted tasks come back as quarantined ``error``
        outcomes; the caller decides whether that fails the run.
        """
        tasks = list(tasks)
        run = _Run(tasks, self._resolve_bus(), on_result)
        if self.workers > 1 and len(tasks) > 1:
            workers = self._start(min(self.workers, len(tasks)),
                                  run.bus.enabled)
            if workers is not None:
                self._run_workers(run, workers)
                return run.outcomes
        self._run_inline(run)
        return run.outcomes

    # ------------------------------------------------------ inline mode

    def _run_inline(self, run: _Run) -> None:
        with bus_scope(run.bus):
            for seq, task in enumerate(run.tasks):
                while run.outcomes[seq] is None:
                    start = time.perf_counter()
                    try:
                        value = task.fn(task.arg)
                    except Exception:
                        run.fail(seq, traceback.format_exc(),
                                 time.perf_counter() - start)
                    else:
                        run.succeed(seq, value,
                                    time.perf_counter() - start)

    # -------------------------------------------------------- pool mode

    def _start(self, count: int, collect: bool
               ) -> Optional[List[_Worker]]:
        """``count`` started workers, collecting task events when
        ``collect``; ``None`` where the platform cannot start processes
        (the run then goes inline)."""
        context = multiprocessing.get_context()
        workers: List[_Worker] = []
        try:
            for worker_id in range(count):
                workers.append(_Worker(worker_id, context, collect,
                                       [w.conn for w in workers]))
        except OSError:
            log.warning("no process pool available; running inline")
            self._shutdown(workers)
            return None
        return workers

    def _run_workers(self, run: _Run, workers: List[_Worker]) -> None:
        # Imported here: it pulls in ``subprocess`` and friends, which
        # no inline (``jobs=1``) run needs at startup.
        from multiprocessing.connection import wait
        deques = self.plan_deques(run.tasks, len(workers))
        home = {seq: queue for queue in deques for seq in queue}
        try:
            while not run.done:
                self._dispatch_idle(workers, deques, run)
                busy = [worker for worker in workers if not worker.idle]
                ready = wait([worker.conn for worker in busy])
                for worker in busy:
                    if worker.conn in ready:
                        self._collect(worker, workers, run, home)
        finally:
            self._shutdown(workers)

    def _dispatch_idle(self, workers: List[_Worker], deques,
                       run: _Run) -> None:
        """Feed every idle worker via :meth:`_pick`."""
        for worker in workers:
            if not worker.idle:
                continue
            picked = self._pick(worker.worker_id, deques)
            if picked is None:
                continue
            seq, victim = picked
            if victim is not None:
                run.bus.emit("steal", thief=worker.worker_id,
                             victim=victim, label=run.tasks[seq].describe())
            worker.dispatch(seq, run.tasks[seq], stolen=victim is not None)

    @staticmethod
    def _collect(worker: _Worker, workers: List[_Worker], run: _Run,
                 home: Dict[int, collections.deque]) -> None:
        """Settle the reply ``worker`` sent, or fail its task when the
        pipe ended without one: only the worker holds the other end, so
        end-of-file means the process died (a fresh one starts in its
        slot, and the events of the task it ran are lost).  The events
        a reply carries are merged into the run's bus first, so they
        precede the task's settlement as they do inline.  A failed task
        that runs again goes back to the head of its ``home`` deque."""
        seq = worker.running
        try:
            _seq, status, payload, elapsed, events = worker.conn.recv()
        except (EOFError, OSError):
            worker.process.join(1.0)
            status = "died"
            payload = (f"worker {worker.worker_id} exited with code "
                       f"{worker.process.exitcode}")
            elapsed = time.monotonic() - worker.started_at
            log.warning("%s while running %s; respawning", payload,
                        run.tasks[seq].describe())
            worker.stop()
            worker.spawn([w.conn for w in workers if w is not worker])
            events = ()
        worker.running = None
        for event in events:
            run.bus.merge(event)
        if status == "ok":
            run.succeed(seq, payload, elapsed, worker.worker_id,
                        worker.stolen)
        elif run.fail(seq, payload, elapsed, worker.worker_id):
            home[seq].appendleft(seq)

    @staticmethod
    def _shutdown(workers: List[_Worker]) -> None:
        """Stop every worker: idle ones exit on a ``None`` message, busy
        ones -- only left when the run is abandoned -- are terminated."""
        for worker in workers:
            if worker.idle:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
        deadline = time.monotonic() + 5.0
        for worker in workers:
            if worker.idle:
                worker.process.join(max(0.0, deadline - time.monotonic()))
            worker.stop()
