"""Per-layer measurement from outside the program.

Three instruments, each used in its own fresh-process pass:

* :class:`SpanTracer` patches the public entry points of each layer
  (the :data:`SPANS` table) and records calls, inclusive seconds and
  self seconds (inclusive minus the spans nested inside), plus the
  exact simulated counters every completed ``System.run`` returns;
* :func:`host_shares` rolls a cProfile run up to layers by module path
  (:data:`LAYERS`), attributing builtins and library code to the layer
  that called them;
* :class:`PoolTap` times ``ParallelExecutor.map*`` in the parent and
  tallies the executor's own task events off an enabled bus.

Nothing under ``src/`` is edited: every patch is undone by
``uninstall``, and spans live in memory until the pass ends.
"""

import functools
import importlib
import os
import pstats
import time
from collections import Counter, defaultdict

#: Layer -> module patterns; ``"pkg.*"`` is a package and everything
#: under it, anything else one exact module.  Every module under
#: ``src/repro`` matches exactly one layer (the test checks it).
LAYERS = {
    "sim.engine": ("repro.sim", "repro.sim.engine"),
    "sim.resources": ("repro.sim.resources",),
    "sim.stats": ("repro.sim.stats", "repro.sim.trace", "repro.sim.metrics"),
    "cpu": ("repro.cpu.*",),
    "mem.cache": ("repro.mem.cache",),
    "mem.hierarchy": ("repro.mem", "repro.mem.hierarchy"),
    "mem.pmc": ("repro.mem.pm_controller", "repro.mem.pm_complex",
                "repro.mem.pm_device"),
    "mem.interconnect": ("repro.mem.interconnect",),
    "core": ("repro.core.*",),
    "persistency": ("repro.persistency.*",),
    "runtime": ("repro.runtime.*",),
    "oslayer": ("repro.oslayer.*",),
    "system": ("repro", "repro.system", "repro.config"),
    "isa": ("repro.isa.*",),
    "workloads": ("repro.workloads.*",),
    "compiler": ("repro.compiler.*",),
    "snapshot": ("repro.snapshot.*",),
    "validation": ("repro.validation.*",),
    "crashstates": ("repro.crashstates.*",),
    "harness": ("repro.harness.*",),
    "obsv": ("repro.obsv.*", "repro.telemetry"),
    "service": ("repro.service.*",),
}

#: Host time spent outside ``repro`` and not attributable to a caller in it.
OTHER = "other"


def _matches(pattern: str, module: str) -> bool:
    if pattern.endswith(".*"):
        package = pattern[:-2]
        return module == package or module.startswith(package + ".")
    return module == pattern


def layers_of(module: str) -> list:
    return [layer for layer, patterns in LAYERS.items()
            if any(_matches(pattern, module) for pattern in patterns)]


def module_of(filename: str, package_dir: str):
    """``repro.x.y`` for a file under ``package_dir`` (the ``repro``
    package directory), else None."""
    relative = os.path.relpath(os.path.abspath(filename), package_dir)
    if relative.startswith("..") or not relative.endswith(".py"):
        return None
    parts = ["repro", *relative[:-3].split(os.sep)]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


#: Span -> patch sites ``"module:Attr.path"``.  Functions a consumer
#: imported by name are patched where that consumer looks them up.
SPANS = {
    "workloads.build": ("repro.workloads.base:Workload.build",),
    "compiler.lower": ("repro.system:lower_program",),
    "system.assemble": ("repro.system:System.__init__",),
    "system.run": ("repro.system:System.run", "repro.system:System.advance"),
    "snapshot.capture": ("repro.system:System.capture_state",),
    "snapshot.restore": ("repro.system:System.restore_state",),
    "snapshot.fingerprint": ("repro.snapshot.fingerprint:fingerprint_state",
                             "repro.snapshot:fingerprint_state"),
    "snapshot.store_put": ("repro.snapshot.store:SnapshotStore.put",),
    "snapshot.store_get": ("repro.snapshot.store:SnapshotStore.get",
                           "repro.snapshot.store:SnapshotStore.load_index"),
    "validation.profile": ("repro.validation.campaign:profile_cell",
                           "repro.validation.campaign:profile_cell_seeding"),
    # Per trial on both paths, so p50/p95 are trial latencies.
    "validation.trial": ("repro.validation.campaign:run_trial",
                         "repro.validation.campaign:_ResidentCell.run_trial"),
    "validation.oracle": ("repro.validation.oracle:PersistOrderOracle.check",),
    "validation.history": (
        "repro.validation.campaign:history_from_recorder",
        "repro.validation.campaign:events_to_history",
        "repro.crashstates.checker:events_to_history"),
    "validation.plan": ("repro.validation.planners:ExhaustivePlanner.plan",
                        "repro.validation.planners:StratifiedPlanner.plan",
                        "repro.validation.planners:AdaptivePlanner.plan"),
    "runtime.recovery": ("repro.validation.campaign:run_recovery",
                         "repro.crashstates.checker:run_recovery",
                         "repro.crashstates.litmus:run_recovery"),
    "crashstates.check_cell": ("repro.crashstates.checker:check_cell",),
    "crashstates.enumerate": (
        "repro.crashstates.checker:enumerate_durable_states",
        "repro.crashstates.litmus:enumerate_durable_states"),
    "crashstates.litmus": ("repro.crashstates.litmus:run_litmus",),
}

#: Spans whose sites call each other: only the outermost call counts.
OUTERMOST = {"system.run", "validation.plan"}
#: Spans that keep every duration for percentiles.
PERCENTILES = {"validation.trial"}

#: Exact simulated counters, summed over every completed ``System.run``:
#: metric -> (stats section, key); nested sections (``cores``) are summed
#: and a ``*`` key matches every key ending in the rest.
SIM_COUNTERS = {
    "cpu.instructions": ("cores", "instructions"),
    "mem.l1_hits": ("hierarchy", "l1_hits"),
    "mem.pm_reads": ("hierarchy", "pm_reads"),
    "pmc.persists": ("pmc", "persists"),
    "pmc.writebacks": ("pmc", "writebacks"),
    "pmc.wpq_coalesced": ("pmc", "wpq_coalesced"),
    "core.spec_buffer_inserts": ("spec_buffer", "in_persist"),
    # Every design names its ordering stall differently (sfence_,
    # dfence_, spec_barrier_): sum whatever ends in stall_cycles.
    "persistency.barrier_stall_cycles": ("design", "*stall_cycles"),
}


def _resolve(site: str):
    """(owner object, attribute name) for ``"module:Attr.path"``."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class _Patches:
    """Attribute replacements that ``uninstall`` puts back."""

    def __init__(self):
        self._undo = []

    def patch(self, site: str, make_wrapper) -> None:
        owner, attr = _resolve(site)
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class SpanTracer(_Patches):
    """In-memory spans around every :data:`SPANS` site."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.counters = Counter()
        self.run_self_s = 0.0
        self._stack = []          # child seconds of each open span
        self._open = Counter()    # open spans per name

    def install(self) -> "SpanTracer":
        for name, sites in SPANS.items():
            for site in sites:
                self.patch(site, functools.partial(self._span, name))
        self.patch("repro.system:System.run", self._observe_run)
        self.patch("repro.validation.campaign:_ResidentCell._restore_payload",
                   self._observe_resident)
        self.patch("repro.validation.campaign:restore_nearest",
                   self._observe_store)
        self.patch("repro.crashstates.checker:_Cell.acquire",
                   self._observe_acquire)
        return self

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if name in OUTERMOST and tracer._open[name]:
                return fn(*args, **kwargs)
            tracer._open[name] += 1
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = tracer._stack.pop()
                tracer._open[name] -= 1
                tracer.calls[name] += 1
                tracer.inclusive[name] += elapsed
                tracer.self_s[name] += elapsed - children
                if tracer._stack:
                    tracer._stack[-1] += elapsed
                if name in PERCENTILES:
                    tracer.durations[name].append(elapsed)
        return span

    # ---------------------------------------------------------- observers

    def _observe_run(self, fn):
        tracer = self

        @functools.wraps(fn)
        def run(system, *args, **kwargs):
            # Self time only: rung captures nested in a laddered run are
            # snapshot work, not simulation.
            before = tracer.self_s["system.run"]
            result = fn(system, *args, **kwargs)
            if system.env.pending() == 0:
                # A full run from cycle 0: the sequence counter is the
                # number of scheduled events.
                tracer.run_self_s += tracer.self_s["system.run"] - before
                tracer.counters["sim.events"] += \
                    system.env.capture_state()["sequence"]
                tracer.counters["sim.cycles"] += result.cycles
                tracer.counters["core.misspeculations"] += \
                    result.misspeculations
                for metric, (section, key) in SIM_COUNTERS.items():
                    tracer.counters[metric] += _stat_sum(
                        result.stats.get(section, {}), key)
            return result
        return run

    def _observe_resident(self, fn):
        tracer = self

        @functools.wraps(fn)
        def restore_payload(*args, **kwargs):
            rung, source = fn(*args, **kwargs)
            tracer.counters[f"snapshot.restores.{source}"] += 1
            return rung, source
        return restore_payload

    def _observe_store(self, fn):
        tracer = self

        @functools.wraps(fn)
        def restore_nearest(*args, **kwargs):
            try:
                rung = fn(*args, **kwargs)
            except Exception:
                tracer.counters["snapshot.restores.cold"] += 1
                raise
            source = "store" if rung is not None else "cold"
            tracer.counters[f"snapshot.restores.{source}"] += 1
            return rung
        return restore_nearest

    def _observe_acquire(self, fn):
        tracer = self

        @functools.wraps(fn)
        def acquire(*args, **kwargs):
            fault, restored_from, horizon = fn(*args, **kwargs)
            source = "resident" if restored_from is not None else "cold"
            tracer.counters[f"snapshot.restores.{source}"] += 1
            return fault, restored_from, horizon
        return acquire

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict:
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.inclusive[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in PERCENTILES:
            durations = sorted(self.durations[name])
            out[f"{name}.p50_ms"] = _percentile(durations, 0.50) * 1e3
            out[f"{name}.p95_ms"] = _percentile(durations, 0.95) * 1e3
        counters = self.counters
        for metric in ("sim.events", "sim.cycles", "core.misspeculations",
                       *SIM_COUNTERS):
            out[metric] = counters[metric]
        out["sim.ns_per_event"] = _ratio(self.run_self_s * 1e9,
                                         counters["sim.events"])
        out["sim.cycles_per_s"] = _ratio(counters["sim.cycles"],
                                         self.run_self_s)
        # Both persist-path stores and regular writebacks enter the WPQ.
        out["pmc.coalesce_ratio"] = _ratio(
            counters["pmc.wpq_coalesced"],
            counters["pmc.persists"] + counters["pmc.writebacks"])
        sources = ("resident", "store", "cold")
        for source in sources:
            out[f"snapshot.restores.{source}"] = \
                counters[f"snapshot.restores.{source}"]
        out["snapshot.resident_ratio"] = _ratio(
            counters["snapshot.restores.resident"],
            sum(counters[f"snapshot.restores.{s}"] for s in sources))
        return out


def _stat_sum(section: dict, key: str) -> int:
    total = 0
    for name, value in section.items():
        if isinstance(value, dict):
            total += _stat_sum(value, key)
        elif name == key or (key[0] == "*" and name.endswith(key[1:])):
            total += value
    return total


def _percentile(ordered: list, q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


class PoolTap(_Patches):
    """Parent-side wall of ``ParallelExecutor.map*`` plus the executor's
    task events, read off the bus the pass enables."""

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.seconds = 0.0
        self.capacity_s = 0.0     # wall x workers of each call
        self.events = Counter()
        self.busy_s = 0.0

    def install(self) -> "PoolTap":
        for site in ("repro.harness.sweep:ParallelExecutor.map",
                     "repro.harness.sweep:ParallelExecutor.map_batched"):
            self.patch(site, self._timed)
        return self

    def _timed(self, fn):
        tap = self

        @functools.wraps(fn)
        def pool_call(executor, *args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(executor, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tap.calls += 1
                tap.seconds += elapsed
                tap.capacity_s += elapsed * executor.jobs
        return pool_call

    def __call__(self, event: dict) -> None:
        kind = event.get("kind")
        self.events[kind] += 1
        if kind in ("task_finish", "batch_finish"):
            self.busy_s += float(event.get("elapsed_s") or 0.0)

    def metrics(self) -> dict:
        return {
            "harness.pool.calls": self.calls,
            "harness.pool.s": self.seconds,
            "harness.pool.tasks": (self.events["task_finish"]
                                   + self.events["batch_finish"]),
            "harness.pool.busy_s": self.busy_s,
            "harness.pool.utilization": _ratio(self.busy_s,
                                               self.capacity_s),
            "harness.pool.retries": self.events["task_retry"],
            "harness.pool.errors": self.events["task_error"],
        }


def host_shares(stats: pstats.Stats) -> dict:
    """Share of profiled self time per layer.

    Functions in a ``repro`` module count for its layer.  Builtins and
    library functions count for the layer of each caller, by the self
    time cProfile recorded per caller, so ``heapq`` work done for the
    engine lands in ``sim.engine``.
    """
    package_dir = os.path.dirname(importlib.import_module("repro").__file__)
    layer_cache = {}

    def layer(func):
        filename = func[0]
        if filename not in layer_cache:
            module = module_of(filename, package_dir)
            found = layers_of(module) if module else []
            layer_cache[filename] = found[0] if found else None
        return layer_cache[filename]

    totals = Counter()
    for func, (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        own = layer(func)
        if own is not None:
            totals[own] += tt
            continue
        attributed = 0.0
        for caller, caller_stats in callers.items():
            caller_layer = layer(caller)
            if caller_layer is not None:
                totals[caller_layer] += caller_stats[2]
                attributed += caller_stats[2]
        totals[OTHER] += max(0.0, tt - attributed)
    grand = sum(totals.values())
    return {f"host_share.{name}": _ratio(totals[name], grand)
            for name in (*LAYERS, OTHER)}
