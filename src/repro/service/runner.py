"""Resumable job execution: journal short-circuit + the pool bridge.

The executor the campaign engine sees here is a drop-in for
:class:`repro.harness.ParallelExecutor`'s ``map``/``map_batched``
surface, but every task it would run is first given a **durable
identity** -- a content hash of the function's qualified name plus the
canonical JSON of its argument -- and looked up in the job's task
journal.  Outcomes already journaled return instantly (counted as
``tasks_from_journal``); only the rest go to the work-stealing pool,
and each settles into the journal the moment it finishes.  Chunking
goes through the shared :func:`repro.harness.plan_batches`, so a
resumed run produces byte-for-byte the same chunks -- which is the
whole trick: a job killed mid-campaign re-simulates exactly the tasks
whose outcomes never reached the journal, and the rebuilt
:class:`CampaignReport` is byte-identical to an uninterrupted run
(modulo wall-clock and location: see
:func:`repro.validation.campaign.report_fingerprint`).

Sweep jobs need none of this machinery -- the per-spec result cache
*is* their journal (each completed spec short-circuits as a cache
hit), so :class:`JobRunner` runs them through the plain
:class:`ParallelExecutor` pointed at the store's shared cache tier.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from typing import Dict, List, Optional, Sequence

from ..harness.retry import SERVICE_POLICY, RetryPolicy
from ..harness.sweep import (
    ParallelExecutor,
    RunSpec,
    Sweep,
    WorkerTaskError,
    plan_batches,
)
from ..obsv.bus import Bus, get_bus
from ..telemetry import get_logger
from ..validation.planners import RunProfile
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    INTERRUPTED,
    JOB_SCHEMA_VERSION,
    RUNNING,
    JobRecord,
    JobStore,
)
from .workers import PoolCancelled, Task, WorkStealingPool

log = get_logger("service.runner")


class JobCancelled(Exception):
    """The job's cancel marker was honoured between tasks."""


# --------------------------------------------------------- durable codec


def _jsonify(value):
    """Canonical JSON-ready form of a task argument."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    return value


def task_key(fn, arg) -> str:
    """Durable task identity: function qualname + canonical argument
    JSON + the job schema version (a schema bump invalidates journaled
    outcomes, mirroring ``RunSpec.cache_key``)."""
    blob = json.dumps(
        {"fn": f"{fn.__module__}.{fn.__qualname__}",
         "arg": _jsonify(arg), "schema": JOB_SCHEMA_VERSION},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _encode(value) -> Dict:
    """Journal encoding for task outcomes.  Campaign trials are plain
    dicts; profiling returns :class:`RunProfile` dataclasses, which are
    tagged so :func:`_decode` can rebuild the real object on resume."""
    if isinstance(value, RunProfile):
        return {"type": "RunProfile",
                "value": dataclasses.asdict(value)}
    return {"type": "json", "value": value}


def _decode(payload):
    if not isinstance(payload, dict) or "type" not in payload:
        return payload
    if payload["type"] == "RunProfile":
        value = dict(payload["value"])
        value["fase_intervals"] = [tuple(pair) for pair
                                   in value["fase_intervals"]]
        return RunProfile(**value)
    return payload["value"]


# ------------------------------------------------------- ServiceExecutor


class ServiceExecutor:
    """A ``map``/``map_batched`` surface that journals every outcome.

    Drop-in where :func:`repro.validation.run_campaign` expects an
    executor.  ``stats`` accumulates resume attribution --
    ``tasks_from_journal`` vs ``tasks_executed`` -- which the runner
    writes into the job's terminal journal entry (the kill-and-resume
    test asserts on exactly these counters).
    """

    def __init__(self, store: JobStore, job_id: str,
                 pool: WorkStealingPool, bus: Optional[Bus] = None,
                 interrupt=None):
        self.store = store
        self.job_id = job_id
        self.pool = pool
        self.bus = bus
        #: Optional ``callable() -> bool``: the service's shutdown
        #: flag.  Both it and the on-disk cancel marker stop the job
        #: between tasks; the runner tells them apart afterwards.
        self.interrupt = interrupt
        self.journaled = store.tasks(job_id)
        self.stats = {"tasks_from_journal": 0, "tasks_executed": 0,
                      "tasks_total": 0}

    def _resolve_bus(self) -> Bus:
        return self.bus if self.bus is not None else get_bus()

    # The campaign engine calls these two --------------------------------

    def map(self, fn, items: Sequence, describe=None) -> List:
        items = list(items)
        tasks = [Task(key=task_key(fn, item), fn=fn, arg=item,
                      affinity=index,
                      label=(describe(item) if describe is not None
                             else f"item {index}"))
                 for index, item in enumerate(items)]
        flat = self._run_tasks(tasks)
        return flat

    def map_batched(self, fn, items: Sequence, key=None,
                    chunk_size=None, describe=None) -> List:
        items = list(items)
        batches = plan_batches(items, key=key, chunk_size=chunk_size)
        tasks = []
        for indices in batches:
            chunk = [items[i] for i in indices]
            tasks.append(Task(
                key=task_key(fn, chunk), fn=fn, arg=chunk,
                affinity=(key(chunk[0]) if key is not None else None),
                label=(describe(chunk) if describe is not None
                       else f"batch x{len(chunk)}")))
        values = self._run_tasks(tasks)
        results: List = [None] * len(items)
        for indices, value in zip(batches, values):
            if (not isinstance(value, (list, tuple))
                    or len(value) != len(indices)):
                raise WorkerTaskError(
                    f"batched task returned "
                    f"{len(value) if hasattr(value, '__len__') else value!r}"
                    f" result(s) for a {len(indices)}-item chunk")
            for index, item in zip(indices, value):
                results[index] = item
        return results

    # ------------------------------------------------------------ guts

    def _should_stop(self) -> bool:
        if self.interrupt is not None and self.interrupt():
            return True
        return self.store.cancel_requested(self.job_id)

    def _check_cancel(self) -> None:
        if self._should_stop():
            raise JobCancelled(self.job_id)

    def _run_tasks(self, tasks: List[Task]) -> List:
        """Journal hits short-circuit; the rest go to the pool, each
        journaled as it settles.  Values return in task order."""
        self._check_cancel()
        bus = self._resolve_bus()
        self.stats["tasks_total"] += len(tasks)
        values: List = [None] * len(tasks)
        missing: List[int] = []
        for position, task in enumerate(tasks):
            if task.key in self.journaled:
                values[position] = _decode(self.journaled[task.key])
                self.stats["tasks_from_journal"] += 1
            else:
                missing.append(position)
        self._progress(bus)
        if not missing:
            return values

        def on_result(outcome) -> None:
            if outcome.ok:
                self.store.append_task(self.job_id, outcome.key,
                                       _encode(outcome.value))
                self.journaled[outcome.key] = _encode(outcome.value)
            self.stats["tasks_executed"] += 1
            self._progress(bus)

        try:
            outcomes = self.pool.run(
                [tasks[position] for position in missing],
                on_result=on_result, should_stop=self._should_stop)
        except PoolCancelled as exc:
            raise JobCancelled(str(exc)) from None
        for position, outcome in zip(missing, outcomes):
            if not outcome.ok:
                raise WorkerTaskError(
                    f"task {tasks[position].describe()} quarantined "
                    f"after {outcome.attempts} attempt(s)\n"
                    f"--- last error ---\n{outcome.error}")
            values[position] = outcome.value
        return values

    def _progress(self, bus: Bus) -> None:
        done = (self.stats["tasks_from_journal"]
                + self.stats["tasks_executed"])
        bus.emit("job_progress", job_id=self.job_id, done=done,
                 total=self.stats["tasks_total"])


# -------------------------------------------------------------- JobRunner


class JobRunner:
    """Takes one queued job from journal to terminal state.

    ``workers``/``task_timeout_s``/``retry`` configure the pool for
    campaign jobs and the :class:`ParallelExecutor` job count for sweep
    jobs.  ``run_job`` never raises for a job-level failure -- the
    verdict lands in the journal and on the bus (``job_finish``), and
    the service moves on to the next job.
    """

    def __init__(self, store: JobStore, workers: int = 1,
                 retry: Optional[RetryPolicy] = None,
                 task_timeout_s: Optional[float] = None,
                 bus: Optional[Bus] = None, interrupt=None):
        self.store = store
        self.workers = max(1, workers)
        self.retry = retry if retry is not None else SERVICE_POLICY
        self.task_timeout_s = task_timeout_s
        self.bus = bus
        #: ``callable() -> bool``: graceful-shutdown flag.  A job
        #: stopped by it journals ``interrupted`` (resumable on the
        #: next service start) instead of ``cancelled`` (terminal).
        self.interrupt = interrupt

    def _resolve_bus(self) -> Bus:
        return self.bus if self.bus is not None else get_bus()

    def run_job(self, job_id: str) -> JobRecord:
        record = self.store.record(job_id)
        spec = record.spec
        bus = self._resolve_bus()
        self.store.set_state(job_id, RUNNING, pid=os.getpid())
        bus.emit("job_start", job_id=job_id, job_kind=spec.kind)
        started = time.perf_counter()
        detail: Dict = {}
        try:
            if spec.kind == "sweep":
                report = self._run_sweep(job_id, spec, detail)
            else:
                report = self._run_campaign(job_id, spec, detail)
        except JobCancelled:
            if (self.interrupt is not None and self.interrupt()
                    and not self.store.cancel_requested(job_id)):
                # Graceful shutdown, not a user cancel: resumable.
                self.store.set_state(job_id, INTERRUPTED, **detail)
                state = INTERRUPTED
            else:
                self.store.clear_cancel(job_id)
                self.store.set_state(job_id, CANCELLED, **detail)
                state = CANCELLED
        except Exception as exc:
            log.warning("job %s failed: %s", job_id, exc)
            self.store.set_state(job_id, FAILED,
                                 error=str(exc)[:500], **detail)
            state = FAILED
        else:
            self.store.save_report(job_id, report)
            self.store.set_state(job_id, DONE, **detail)
            state = DONE
        bus.emit("job_finish", job_id=job_id, state=state,
                 elapsed_s=round(time.perf_counter() - started, 3))
        return self.store.record(job_id)

    # ------------------------------------------------------------ sweep

    def _run_sweep(self, job_id: str, spec, detail: Dict) -> Dict:
        """Sweeps resume through the shared per-spec result cache:
        every completed spec is a cache hit on re-run, so only missing
        cells simulate."""
        if self.store.cancel_requested(job_id):
            raise JobCancelled(job_id)
        specs = [RunSpec.from_dict(payload)
                 for payload in spec.params["specs"]]
        executor = ParallelExecutor(jobs=self.workers,
                                    cache_dir=self.store.cache_dir,
                                    bus=self.bus, retry=self.retry)
        result = executor.run(Sweep(specs, name=spec.name or "job"))
        detail["cache_hits"] = result.stats.get("cache_hits", 0)
        detail["cache_misses"] = result.stats.get("cache_misses", 0)
        return {
            "kind": "sweep",
            "n_specs": len(specs),
            "stats": result.stats,
            "specs": [item.to_dict() for item in specs],
            "results": [item.to_dict() for item in result.results],
        }

    # --------------------------------------------------------- campaign

    def _run_campaign(self, job_id: str, spec, detail: Dict) -> Dict:
        """Campaigns resume through the task journal: the
        :class:`ServiceExecutor` replays journaled chunk outcomes and
        simulates only the rest (rungs come off the shared snapshot
        tier either way)."""
        from ..validation.campaign import run_campaign
        pool = WorkStealingPool(workers=self.workers, retry=self.retry,
                                task_timeout_s=self.task_timeout_s,
                                bus=self.bus)
        executor = ServiceExecutor(self.store, job_id, pool,
                                   bus=self.bus,
                                   interrupt=self.interrupt)
        params = spec.params
        report = run_campaign(
            workloads=params["workloads"], designs=params["designs"],
            planner=params.get("planner", "stratified"),
            fault=params.get("fault", "power-cut"),
            budget=params.get("budget", 200),
            seed=params.get("seed", 42),
            n_threads=params.get("n_threads", 2),
            fases_per_thread=params.get("fases_per_thread", 10),
            log_mode=params.get("log_mode", "undo"),
            shrink=params.get("shrink", False),
            executor=executor,
            snapshot_dir=self.store.snapshot_dir,
            snapshot_rungs=params.get("snapshot_rungs", 16),
            batch=params.get("batch", 10))
        detail.update(executor.stats)
        return report.to_dict()
