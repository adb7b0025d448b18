"""Declarative experiment sweeps and the parallel executor.

This module is the single request surface for every simulation the
harness runs.  A :class:`RunSpec` names one cell of the paper's
evaluation grid -- benchmark, design, thread count, FASE count, seed,
configuration -- and a :class:`Sweep` is an ordered collection of specs
(usually a cartesian grid).  :class:`ParallelExecutor` turns a sweep
into a :class:`SweepResult`:

* specs fan out over the worker pool (:mod:`repro.harness.pool`;
  ``jobs=1`` runs it inline) while results always come back in sweep
  order, so ``jobs=1`` and ``jobs=N`` produce bit-identical payloads;
* each spec's result is cached on disk (one artifact JSON per spec,
  keyed by a content hash of the resolved spec), so re-running an
  unchanged sweep is free;
* a failed spec -- it raised, or its worker process died -- runs once
  more (:data:`repro.harness.pool.MAX_ATTEMPTS`); one that fails again
  raises :class:`SweepError` with its last traceback attached.

Per-spec wall-clock timing and cache provenance land in
``SimResult.stats["executor"]``; that section is host-specific and is
deliberately excluded from ``SimResult.to_dict()`` so serialised
results stay deterministic.

Observability: every sweep narrates itself onto the current
:mod:`repro.obsv.bus` -- ``sweep_start``, ``cache_hit``/``cache_miss``,
``spec_start`` (where the spec runs), ``spec_finish``/``spec_error``
(authoritative, parent-side), ``sweep_finish``.
:meth:`ParallelExecutor.map` and ``map_batched`` narrate
``task_*``/``batch_*`` the same way.  Worker-side events ride each
task's reply back to the parent, which merges them into its bus just
before it settles the task, so the log stays a single ordered stream
and holds each task's events in the order ``jobs=1`` emits them.  The
``progress`` lines and the end-of-sweep statistics are counted where
those events are emitted, so they read the same whether or not a bus
is enabled.
Events are wall-clock-side bookkeeping: an enabled bus leaves every
``SimResult`` payload bit-identical.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..config import SystemConfig
from ..obsv.bus import Bus, get_bus
from ..persistency import design_by_name
from ..system import RESULT_SCHEMA_VERSION, SimResult, build_system
from ..telemetry import get_logger, run_context
from ..workloads import (
    BENCHMARKS,
    LoadMisspecProbe,
    StoreMisspecProbe,
)
from .artifacts import load_artifact, save_artifact
from .configs import default_config
from .pool import Task, TaskOutcome, WorkStealingPool, error_tail

# Synthetic §8.4 probes are runnable through the sweep API even though
# they are not Table 4 benchmarks.
PROBES = {
    LoadMisspecProbe.name: LoadMisspecProbe,
    StoreMisspecProbe.name: StoreMisspecProbe,
}

log = get_logger("harness.sweep")


def _workload_class(name: str):
    if name in BENCHMARKS:
        return BENCHMARKS[name]
    if name in PROBES:
        return PROBES[name]
    raise ValueError(
        f"unknown benchmark {name!r}; choose from "
        f"{sorted(BENCHMARKS) + sorted(PROBES)}")


# --------------------------------------------------------------- RunSpec


@dataclass(frozen=True)
class RunSpec:
    """One simulation request: a single cell of an evaluation grid.

    ``config`` is the *base* configuration (default: Table 3 with
    ``n_threads`` cores); ``config_overrides`` are field replacements
    applied on top of it (``spec_buffer_entries``, ``persist_path_ns``,
    ``extra``, ...).  The resolved configuration's ``n_cores`` MUST
    equal ``n_threads`` -- threads are pinned 1:1 to cores and the old
    ``run_benchmark`` behaviour of silently rewriting a caller-supplied
    config is a bug this class refuses to reproduce.  Pass a matching
    config, or override ``n_cores`` explicitly.

    ``label`` is a free-form tag carried through to results (used by
    the misspeculation/ablation tables); it does not affect the cache
    key.
    """

    benchmark: str
    design: str
    n_threads: int = 8
    fases_per_thread: Optional[int] = None
    seed: int = 42
    config: Optional[SystemConfig] = None
    config_overrides: Mapping[str, object] = field(default_factory=dict)
    recovery_mode: str = "lazy"
    log_mode: str = "undo"
    # (core_id, extra_cycles) applied to the persist path after build --
    # the §8.4 congested-ring probe and the recovery ablation use this.
    core_extra_cycles: Optional[Tuple[int, int]] = None
    label: str = ""

    def __post_init__(self):
        self.validate()

    # ------------------------------------------------------- validation

    def validate(self) -> None:
        _workload_class(self.benchmark)
        try:
            design_by_name(self.design)
        except KeyError as exc:
            raise ValueError(str(exc)) from None
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if self.fases_per_thread is not None and self.fases_per_thread < 1:
            raise ValueError("fases_per_thread must be >= 1")
        if self.recovery_mode not in ("lazy", "eager"):
            raise ValueError(f"unknown recovery_mode {self.recovery_mode!r}")
        if self.log_mode not in ("undo", "redo"):
            raise ValueError(f"unknown log_mode {self.log_mode!r}")
        cfg = self.resolved_config()
        if cfg.n_cores != self.n_threads:
            raise ValueError(
                f"config.n_cores={cfg.n_cores} disagrees with "
                f"n_threads={self.n_threads}: threads are pinned 1:1 to "
                f"cores.  Pass a config built for {self.n_threads} cores "
                f"(or add n_cores={self.n_threads} to config_overrides); "
                f"RunSpec never rewrites a caller-supplied config.")

    # ------------------------------------------------------- resolution

    def resolved_config(self) -> SystemConfig:
        """The base config plus overrides (what the simulation uses)."""
        base = (self.config if self.config is not None
                else default_config(n_cores=self.n_threads))
        if self.config_overrides:
            base = base.with_overrides(**dict(self.config_overrides))
        base.validate()
        return base

    def resolved_fases(self) -> int:
        if self.fases_per_thread is not None:
            return self.fases_per_thread
        return _workload_class(self.benchmark).default_fases

    # ---------------------------------------------------- serialisation

    def to_dict(self) -> Dict:
        """Canonical JSON-ready form (fases and config fully resolved)."""
        return {
            "benchmark": self.benchmark,
            "design": self.design,
            "n_threads": self.n_threads,
            "fases_per_thread": self.resolved_fases(),
            "seed": self.seed,
            "config": dataclasses.asdict(self.resolved_config()),
            "recovery_mode": self.recovery_mode,
            "log_mode": self.log_mode,
            "core_extra_cycles": (list(self.core_extra_cycles)
                                  if self.core_extra_cycles else None),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunSpec":
        config = payload.get("config")
        extra = payload.get("core_extra_cycles")
        return cls(
            benchmark=payload["benchmark"],
            design=payload["design"],
            n_threads=payload.get("n_threads", 8),
            fases_per_thread=payload.get("fases_per_thread"),
            seed=payload.get("seed", 42),
            config=SystemConfig(**config) if config else None,
            recovery_mode=payload.get("recovery_mode", "lazy"),
            log_mode=payload.get("log_mode", "undo"),
            core_extra_cycles=tuple(extra) if extra else None,
            label=payload.get("label", ""),
        )

    def cache_key(self) -> str:
        """Content hash of everything that determines the result.

        Covers the resolved spec (benchmark, design, threads, fases,
        seed, full resolved config, recovery/log mode, persist-path
        perturbations) plus the result schema version, so a schema bump
        invalidates stale cache entries.  ``label`` is presentation-only
        and excluded.
        """
        payload = self.to_dict()
        del payload["label"]
        payload["schema_version"] = RESULT_SCHEMA_VERSION
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def describe(self) -> str:
        tag = f" [{self.label}]" if self.label else ""
        return (f"{self.benchmark}/{self.design} x{self.n_threads} "
                f"seed={self.seed}{tag}")


# ----------------------------------------------------------------- Sweep


class Sweep:
    """An ordered collection of :class:`RunSpec` (usually a grid)."""

    def __init__(self, specs: Iterable[RunSpec], name: str = "sweep"):
        self.specs: List[RunSpec] = list(specs)
        self.name = name

    @classmethod
    def grid(cls,
             benchmarks: Sequence[str],
             designs: Sequence[str],
             n_threads: Union[int, Sequence[int]] = 8,
             seeds: Union[int, Sequence[int]] = 42,
             fases_per_thread: Union[None, int,
                                     Mapping[str, int]] = None,
             config: Optional[SystemConfig] = None,
             config_overrides: Optional[Mapping[str, object]] = None,
             recovery_mode: str = "lazy",
             log_mode: str = "undo",
             name: str = "grid") -> "Sweep":
        """Cartesian product in deterministic order: thread counts
        outermost, then benchmarks, then designs, then seeds (the order
        Figures 9 and 10 print in).  ``fases_per_thread`` may be a
        single int, a per-benchmark mapping, or ``None`` (workload
        defaults)."""
        thread_list = ([n_threads] if isinstance(n_threads, int)
                       else list(n_threads))
        seed_list = [seeds] if isinstance(seeds, int) else list(seeds)

        def fases_for(benchmark: str) -> Optional[int]:
            if isinstance(fases_per_thread, Mapping):
                return fases_per_thread.get(benchmark)
            return fases_per_thread

        specs = [
            RunSpec(benchmark=benchmark, design=design, n_threads=threads,
                    fases_per_thread=fases_for(benchmark), seed=seed,
                    config=config,
                    config_overrides=dict(config_overrides or {}),
                    recovery_mode=recovery_mode, log_mode=log_mode)
            for threads in thread_list
            for benchmark in benchmarks
            for design in designs
            for seed in seed_list
        ]
        return cls(specs, name=name)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs)

    def __getitem__(self, index: int) -> RunSpec:
        return self.specs[index]

    def __add__(self, other: "Sweep") -> "Sweep":
        return Sweep(self.specs + list(other),
                     name=f"{self.name}+{getattr(other, 'name', 'sweep')}")

    def __repr__(self) -> str:
        return f"Sweep({self.name}: {len(self.specs)} specs)"


# ----------------------------------------------------------- SweepResult


class SweepResult:
    """Ordered (spec, result) pairs plus executor-level statistics."""

    def __init__(self, specs: Sequence[RunSpec],
                 results: Sequence[SimResult], stats: Dict):
        if len(specs) != len(results):
            raise ValueError("specs and results length mismatch")
        self.specs = list(specs)
        self.results = list(results)
        self.stats = stats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[Tuple[RunSpec, SimResult]]:
        return iter(zip(self.specs, self.results))

    def __getitem__(self, index: int) -> SimResult:
        return self.results[index]

    def filter(self, predicate: Callable[[RunSpec], bool]) -> "SweepResult":
        kept = [(s, r) for s, r in self if predicate(s)]
        return SweepResult([s for s, _ in kept], [r for _, r in kept],
                           dict(self.stats))

    def table(self, row_key: Callable[[RunSpec], object],
              col_key: Callable[[RunSpec], object]
              ) -> "Dict[object, Dict[object, SimResult]]":
        """Group results into ``{row: {col: SimResult}}`` (insertion
        order follows the sweep order)."""
        out: Dict[object, Dict[object, SimResult]] = {}
        for spec, result in self:
            out.setdefault(row_key(spec), {})[col_key(spec)] = result
        return out

    def __repr__(self) -> str:
        return (f"SweepResult({len(self)} runs, "
                f"{self.stats.get('cache_hits', 0)} cached, "
                f"{self.stats.get('elapsed_s', 0.0):.1f}s)")


# -------------------------------------------------------------- executor


class SweepError(RuntimeError):
    """A spec failed on every attempt the pool allows."""

    def __init__(self, spec: RunSpec, message: str,
                 worker_traceback: str = ""):
        detail = f"spec {spec.describe()} failed: {message}"
        if worker_traceback:
            detail += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(detail)
        self.spec = spec
        self.worker_traceback = worker_traceback


class WorkerTaskError(RuntimeError):
    """A map item or chunk failed on every attempt the pool allows, or
    a chunk returned the wrong number of results."""


def plan_batches(items: Sequence, key: Optional[Callable] = None,
                 chunk_size: Optional[int] = None) -> List[List[int]]:
    """Affinity-batched chunk plan: item indexes per (group, chunk).

    The chunking rule behind :meth:`ParallelExecutor.map_batched`:
    identical inputs produce *identical* chunks, which is what makes
    ``validate --resume``'s journaled chunk outcomes reusable across
    runs.  Items with equal ``key`` stay contiguous; ``chunk_size``
    caps items per chunk (``None``/``0`` ships each whole group as one
    chunk).
    """
    groups: Dict[object, List[int]] = {}
    for index, item in enumerate(items):
        group = key(item) if key is not None else None
        groups.setdefault(group, []).append(index)
    batches: List[List[int]] = []
    for indices in groups.values():
        step = chunk_size or len(indices)
        for start in range(0, len(indices), step):
            batches.append(indices[start:start + step])
    return batches


#: ``(key, program)`` of the program :func:`build_spec_system` built
#: last; key = (workload class, seed, threads, FASEs).
_LAST_BUILT: Optional[Tuple[tuple, object]] = None


def _spec_program(spec: RunSpec):
    """The spec's program, reused from the previous call when the spec
    names the same workload class, seed, thread count and FASE count.

    Sweeps are design-innermost grids (Figure 9 runs each program under
    its four designs in a row), so one entry builds each program once
    per sweep, and IntelX86 and DPO share its memoised x86 lowering.  A
    run never mutates its program (the system copies the initial heap).
    One entry, not an LRU: a sweep is past a program once its designs
    are done, so more entries would only hold programs in memory.
    """
    global _LAST_BUILT
    workload_class = _workload_class(spec.benchmark)
    fases = spec.resolved_fases()
    key = (workload_class, spec.seed, spec.n_threads, fases)
    if _LAST_BUILT is None or _LAST_BUILT[0] != key:
        _LAST_BUILT = None      # free the old program before building
        program = workload_class(seed=spec.seed).build(spec.n_threads,
                                                       fases)
        _LAST_BUILT = (key, program)
    return _LAST_BUILT[1]


def build_spec_system(spec: RunSpec, tracer=None, metrics=None):
    """Build (but do not run) the fully wired system for one spec."""
    system = build_system(_spec_program(spec), design_by_name(spec.design),
                          spec.resolved_config(),
                          recovery_mode=spec.recovery_mode,
                          log_mode=spec.log_mode,
                          tracer=tracer, metrics=metrics)
    if spec.core_extra_cycles is not None:
        core_id, cycles = spec.core_extra_cycles
        system.persist_path.set_core_extra(core_id, cycles)
    return system


def execute_spec(spec: RunSpec, tracer=None, metrics=None) -> SimResult:
    """Run one spec to completion.

    ``tracer`` / ``metrics`` (a :class:`repro.sim.TraceRecorder` /
    :class:`repro.sim.MetricsCollector`) opt the run into observability;
    both default to off, which is what the sweep cache assumes -- traced
    runs bypass the executor entirely (see the CLI ``trace`` command)."""
    return build_spec_system(spec, tracer=tracer, metrics=metrics).run()


# Worker-side alias (kept for pickling stability and old imports).
_execute_spec = execute_spec


def _run_spec(spec: RunSpec) -> SimResult:
    """Spec task body; resolves ``_execute_spec`` at call time."""
    return _execute_spec(spec)


def _announced(start: Tuple[str, Dict], context: Dict[str, str],
               fn: Callable, arg):
    """Task body: emit the task's ``*_start`` event where it runs
    (inside ``context``), then call ``fn``."""
    kind, fields = start
    with run_context(**context):
        get_bus().emit(kind, **fields)
        return fn(arg)


def _task(index: int, fn: Callable, arg, start: Tuple[str, Dict],
          label: str, affinity=None,
          context: Optional[Dict[str, str]] = None) -> Task:
    """The pool task for one spec, item or chunk.  The body keeps
    ``fn``'s name, which is what the resume journal keys tasks by."""
    body = functools.update_wrapper(
        functools.partial(_announced, start, context or {}, fn), fn)
    return Task(key=str(index), fn=body, arg=arg, affinity=affinity,
                label=label)


def _source(outcome: TaskOutcome) -> str:
    """Where a settled task's value came from, for ``*_finish``."""
    if outcome.attempts == 0:
        return "journal"
    if outcome.worker < 0:
        return "serial"
    return "steal" if outcome.stolen else "pool"


def _quarantined(outcome: TaskOutcome) -> str:
    return f"quarantined after {outcome.attempts} attempt(s)"


def _task_value(bus: Bus, report: Callable[[str, str], None], index: int,
                label: str, outcome: TaskOutcome):
    """A settled ``map``/``map_batched`` task's value; a quarantined one
    emits ``task_error``, reports an ``error`` progress line and raises
    :class:`WorkerTaskError`."""
    if not outcome.ok:
        bus.emit("task_error", index=index, label=label,
                 error=error_tail(outcome.error))
        report(label, "error")
        raise WorkerTaskError(f"{label} {_quarantined(outcome)}\n"
                              f"--- worker traceback ---\n{outcome.error}")
    return outcome.value


class ParallelExecutor:
    """Executes sweeps; the only way experiments run simulations.

    ``jobs`` is the worker-process count (``None`` = ``os.cpu_count()``,
    ``1`` = in-process serial).  ``cache_dir`` enables the per-spec
    result cache (``None`` disables it).  ``progress`` is an optional
    ``callable(str)`` invoked once per settled spec, item or chunk with
    a ``[done/total] label (how)`` line, ``how`` being ``cached``, the
    elapsed time or ``error``.  ``bus`` pins the event bus this
    executor publishes to; the default resolves
    :func:`repro.obsv.bus.get_bus` at each ``run()``/``map()`` so the
    CLI's ``--events-out`` scope is picked up automatically.

    :meth:`run`, :meth:`map` and :meth:`map_batched` each build a list
    of :class:`~repro.harness.pool.Task` for one fan-out step,
    :meth:`_fan_out`, which :class:`repro.harness.resume.JournaledExecutor`
    overrides.
    """

    def __init__(self, jobs: Optional[int] = 1,
                 cache_dir: Optional[str] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 bus: Optional[Bus] = None):
        self.jobs = max(1, jobs if jobs is not None
                        else (os.cpu_count() or 1))
        self.cache_dir = cache_dir
        self.progress = progress
        self.bus = bus

    def _resolve_bus(self) -> Bus:
        """The pinned bus, else the process-current one (``NULL_BUS``
        when observability is off)."""
        return self.bus if self.bus is not None else get_bus()

    def _reporter(self, total: int) -> Callable[[str, str], None]:
        """``report(label, how)``: one ``progress`` line per settled
        spec, item or chunk (a no-op without a callback)."""
        progress = self.progress
        if progress is None:
            return lambda label, how: None
        done = 0

        def report(label: str, how: str) -> None:
            nonlocal done
            done += 1
            progress(f"[{done}/{total}] {label} ({how})")
        return report

    # -------------------------------------------------------- fan-out

    def _fan_out(self, tasks: List[Task], bus: Bus,
                 settle: Callable[[int, TaskOutcome], None]) -> None:
        """Run ``tasks`` on the worker pool (inline when ``jobs=1``);
        ``settle(position, outcome)`` runs in the parent as each task
        settles, and an exception it raises stops the fan-out.  ``bus``
        is the pool's: task events and the pool's own reach it."""
        WorkStealingPool(workers=self.jobs, bus=bus).run(
            tasks, on_result=lambda outcome: settle(outcome.index, outcome))

    # ------------------------------------------------------------ cache

    def _cache_path(self, spec: RunSpec) -> str:
        return os.path.join(self.cache_dir, f"{spec.cache_key()}.json")

    def _cache_load(self, spec: RunSpec) -> Optional[SimResult]:
        if self.cache_dir is None:
            return None
        path = self._cache_path(spec)
        if not os.path.exists(path):
            return None
        try:
            document = load_artifact(path)
        except (ValueError, json.JSONDecodeError, OSError):
            return None
        payload = document["data"]
        if payload.get("schema_version") != RESULT_SCHEMA_VERSION:
            return None
        return SimResult.from_dict(payload)

    def _cache_store(self, spec: RunSpec, result: SimResult) -> None:
        if self.cache_dir is None:
            return
        save_artifact(self.cache_dir, spec.cache_key(), result.to_dict(),
                      meta={"spec": spec.to_dict()})

    # -------------------------------------------------------------- run

    def run(self, sweep: Union[Sweep, RunSpec, Iterable[RunSpec]]
            ) -> SweepResult:
        """Execute every spec; results come back in sweep order."""
        if isinstance(sweep, RunSpec):
            specs = [sweep]
        else:
            specs = list(sweep)
        started = time.perf_counter()
        results: List[Optional[SimResult]] = [None] * len(specs)
        timings: List[Dict] = [dict() for _ in specs]
        bus = self._resolve_bus()
        report = self._reporter(len(specs))
        misses: List[int] = []
        walls: List[float] = []     # wall time of each spec not cached
        retries = 0

        def finish(index: int, elapsed: float, retried: bool,
                   source: str) -> None:
            """One authoritative parent-side spec_finish per spec."""
            nonlocal retries
            cache_hit = source == "cache"
            timings[index] = {"cache_hit": int(cache_hit),
                              "elapsed_s": elapsed,
                              "retried": int(retried)}
            if not cache_hit:
                walls.append(elapsed)
            retries += retried
            describe = specs[index].describe()
            bus.emit(
                "spec_finish", index=index, describe=describe,
                elapsed_s=elapsed, cache_hit=cache_hit, retried=retried,
                source=source,
                cycles=(results[index].cycles
                        if results[index] is not None else 0))
            report(describe, "cached" if cache_hit else f"{elapsed:.1f}s")
            log.debug("%s done (%s, %.1fs)", describe, source, elapsed)

        def settle(position: int, outcome: TaskOutcome) -> None:
            index = misses[position]
            spec = specs[index]
            if not outcome.ok:
                bus.emit("spec_error", index=index,
                         describe=spec.describe(),
                         error=error_tail(outcome.error))
                report(spec.describe(), "error")
                raise SweepError(spec, _quarantined(outcome),
                                 worker_traceback=outcome.error)
            results[index] = outcome.value
            self._cache_store(spec, outcome.value)
            finish(index, outcome.elapsed_s, outcome.attempts > 1,
                   _source(outcome))

        bus.emit("sweep_start", n_specs=len(specs), jobs=self.jobs)
        for index, spec in enumerate(specs):
            cached = self._cache_load(spec)
            if cached is not None:
                results[index] = cached
                bus.emit("cache_hit", index=index, describe=spec.describe())
                finish(index, 0.0, False, "cache")
            else:
                bus.emit("cache_miss", index=index,
                         describe=spec.describe())
                misses.append(index)

        self._fan_out([
            _task(index, _run_spec, specs[index],
                  ("spec_start", {"index": index,
                                  "describe": specs[index].describe()}),
                  specs[index].describe(), affinity=index,
                  context={"spec_hash": specs[index].cache_key()[:12]})
            for index in misses], bus, settle)

        elapsed = time.perf_counter() - started
        cache_misses = len(misses)
        cache_hits = len(specs) - cache_misses
        stats = {
            "jobs": self.jobs,
            "n_specs": len(specs),
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "retries": retries,
            "elapsed_s": elapsed,
        }
        bus.emit("sweep_finish", n_specs=len(specs), cache_hits=cache_hits,
                 cache_misses=cache_misses, retries=retries,
                 elapsed_s=elapsed, busy_s=sum(walls), jobs=self.jobs)
        log.info(
            "sweep done: %d specs in %.1fs (%d cached, %d simulated, "
            "%d retried, jobs=%d, spec wall mean/max %.1f/%.1fs)",
            len(specs), elapsed, cache_hits, cache_misses, retries,
            self.jobs, sum(walls) / len(walls) if walls else 0.0,
            max(walls, default=0.0))
        for index, result in enumerate(results):
            info = dict(timings[index])
            info["jobs"] = self.jobs
            result.stats["executor"] = info
        return SweepResult(specs, results, stats)

    # -------------------------------------------------------------- map

    def map(self, fn: Callable, items: Sequence,
            describe: Optional[Callable[[object], str]] = None) -> List:
        """Apply a picklable ``fn`` to every item, in order.

        The generic sibling of :meth:`run` for non-``RunSpec`` work (the
        validation campaign's profiling runs fan out through this): the
        same pool and retry rule, but no disk cache and plain return
        values instead of :class:`SimResult`.  ``fn`` and each item must
        survive pickling when ``jobs > 1``.
        """
        items = list(items)
        results: List = [None] * len(items)
        bus = self._resolve_bus()
        report = self._reporter(len(items))
        labels = [describe(item) if describe is not None
                  else f"item {index}" for index, item in enumerate(items)]

        def settle(index: int, outcome: TaskOutcome) -> None:
            results[index] = _task_value(bus, report, index, labels[index],
                                         outcome)
            bus.emit("task_finish", index=index, label=labels[index],
                     elapsed_s=outcome.elapsed_s, source=_source(outcome))
            report(labels[index], f"{outcome.elapsed_s:.1f}s")

        self._fan_out([
            _task(index, fn, item,
                  ("task_start", {"index": index, "label": labels[index]}),
                  labels[index], affinity=index)
            for index, item in enumerate(items)], bus, settle)
        return results

    # ------------------------------------------------------ map_batched

    def map_batched(self, fn: Callable, items: Sequence,
                    key: Optional[Callable[[object], object]] = None,
                    chunk_size: Optional[int] = None,
                    describe: Optional[Callable[[Sequence], str]] = None
                    ) -> List:
        """Affinity-batched fan-out: one task per (group, chunk).

        ``fn`` is a *batch* function: it receives a list of items and
        must return a list of results of the same length, in order.
        ``key`` groups items (all items with equal keys land in the
        same chunks, and a group's chunks on the same worker -- the
        campaign groups crash trials by cell so a worker can keep the
        cell's system resident across its chunks); ``chunk_size`` caps
        items per shipped task (``None``/``0`` ships each whole group
        as one task).  Results come back in the original item order.

        Pool and retry rule match :meth:`map`, but the bus carries one
        ``batch_start``/``batch_finish`` per chunk instead of one
        ``task_*`` pair per item: collapsing the per-item pickle
        round-trips into one per chunk is the point.
        """
        items = list(items)
        batches = plan_batches(items, key=key, chunk_size=chunk_size)
        chunks = [[items[i] for i in indices] for indices in batches]
        labels = [describe(chunk) if describe is not None
                  else f"batch {index} (x{len(chunk)})"
                  for index, chunk in enumerate(chunks)]
        results: List = [None] * len(items)
        bus = self._resolve_bus()
        report = self._reporter(len(batches))

        def settle(index: int, outcome: TaskOutcome) -> None:
            value = _task_value(bus, report, index, labels[index], outcome)
            indices = batches[index]
            if (not isinstance(value, (list, tuple))
                    or len(value) != len(indices)):
                count = len(value) if hasattr(value, "__len__") else value
                raise WorkerTaskError(
                    f"chunk {labels[index]} returned {count!r} result(s) "
                    f"for a {len(indices)}-item batch")
            for item_index, item in zip(indices, value):
                results[item_index] = item
            bus.emit("batch_finish", index=index, label=labels[index],
                     size=len(indices), elapsed_s=outcome.elapsed_s,
                     source=_source(outcome))
            report(labels[index], f"{outcome.elapsed_s:.1f}s")

        self._fan_out([
            _task(index, fn, chunk,
                  ("batch_start", {"index": index, "label": labels[index],
                                   "size": len(chunk)}),
                  labels[index],
                  affinity=key(chunk[0]) if key is not None else None)
            for index, chunk in enumerate(chunks)], bus, settle)
        return results
