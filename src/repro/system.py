"""Full-system assembly: one simulated machine running one workload
under one persistency design.

Build order matters: the design is bound before the PMC policy is
created (PMEM-Spec's policy captures the speculation buffer), and the
hierarchy is created after the design so it can pick up bus extras
(HOPS' sticky bit).  :meth:`System.run` executes every core's thread to
completion -- or to a crash point, for the crash-injection tests -- and
returns a :class:`SimResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .compiler import LoweredProgram, lower_program
from .config import SystemConfig
from .core.events import MisspeculationEvent
from .core.spec_buffer import SpeculationBuffer, StallController
from .core.spec_id import SpecIdFile
from .cpu.core import Core
from .isa import Program
from .mem import (
    CacheHierarchy,
    LockNetwork,
    MemoryImage,
    PMController,
    PMDevice,
    PersistPath,
)
from .oslayer import InterruptController, SimProcess
from .persistency.base import Design
from .runtime import (
    LOG_BASE,
    LOG_REGION_BYTES,
    DATA_BASE,
    FailureAtomicRuntime,
)
from .sim import Counter, Environment, Mutex


# Version of the SimResult.to_dict() payload that saved artifacts
# carry.  Bump when fields are added/renamed/removed.  The harness'
# outcome store needs no bump: its keys digest the code itself, so a
# journaled result is only ever read by the code that wrote it.
# v3 added the optional ``timeseries`` section (cycle-windowed metrics).
RESULT_SCHEMA_VERSION = 3


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    design: str
    workload: str
    n_cores: int
    cycles: int
    fases_committed: int
    fases_aborted: int
    load_misspeculations: int
    store_misspeculations: int
    stale_loads: int
    spec_buffer_overflows: int
    freq_ghz: float
    stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Cycle-windowed time series (MetricsCollector.to_dict()); None when
    # the run was not collected.
    timeseries: Optional[Dict] = None

    @property
    def seconds(self) -> float:
        return self.cycles / (self.freq_ghz * 1e9)

    @property
    def throughput(self) -> float:
        """Committed FASEs (transactions) per second -- the paper's
        normalised metric."""
        if self.cycles == 0:
            return 0.0
        return self.fases_committed / self.seconds

    @property
    def misspeculations(self) -> int:
        return self.load_misspeculations + self.store_misspeculations

    def to_dict(self) -> Dict:
        """JSON-ready summary (used by the harness' artifact export and
        its outcome store).

        The payload is versioned (``schema_version``) and deterministic
        for a given run: the host-specific ``stats["executor"]`` section
        the parallel executor attaches (timings, cache provenance) is
        excluded, so serial and parallel runs of the same spec serialise
        identically.
        """
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "design": self.design,
            "workload": self.workload,
            "n_cores": self.n_cores,
            "cycles": self.cycles,
            "seconds": self.seconds,
            "fases_committed": self.fases_committed,
            "fases_aborted": self.fases_aborted,
            "throughput": self.throughput,
            "load_misspeculations": self.load_misspeculations,
            "store_misspeculations": self.store_misspeculations,
            "stale_loads": self.stale_loads,
            "spec_buffer_overflows": self.spec_buffer_overflows,
            "freq_ghz": self.freq_ghz,
            "stats": {section: counters
                      for section, counters in self.stats.items()
                      if section != "executor"},
            "timeseries": self.timeseries,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "SimResult":
        """Rebuild a result from :meth:`to_dict` output of the same
        code; the derived ``seconds``/``throughput`` keys are ignored."""
        kwargs = {name: payload[name] for name in cls.__dataclass_fields__}
        kwargs["stats"] = dict(kwargs["stats"])
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        import json
        return json.dumps(self.to_dict(), indent=indent)

    def __repr__(self) -> str:
        return (f"SimResult({self.design} on {self.workload}: "
                f"{self.fases_committed} FASEs in {self.cycles} cycles, "
                f"{self.throughput:.3e} FASEs/s)")


def _misspeculation_reporter(env: Environment,
                             interrupts: InterruptController):
    """The speculation buffers' report hook: hardware detection -> OS
    interrupt -> runtime (§6.1).  A closure over the two collaborators
    it needs, not a bound method of the system, which would tie the
    buffers the system owns back to it in a reference cycle."""

    def report(event: MisspeculationEvent) -> None:
        if env.metrics.enabled:
            env.metrics.count("misspeculations", env.now)
            env.metrics.count(f"{event.kind}_misspeculations", env.now)
        interrupts.raise_misspeculation(event, env.now)

    return report


class System:
    """One machine + design + lowered workload, ready to simulate.

    The object graph is acyclic (docs/ARCHITECTURE.md, "Ownership"):
    the system owns its components, and those that need the system
    back -- cores, the design, a snapshot ladder -- hold it weakly, so
    dropping a finished system frees all of it by reference counting.
    """

    def __init__(self, config: SystemConfig, design: Design,
                 lowered: LoweredProgram,
                 recovery_mode: str = "lazy",
                 tracer=None, metrics=None):
        if design.flavor != lowered.flavor:
            raise ValueError(
                f"design {design.name} executes flavor {design.flavor!r} "
                f"but the program was lowered for {lowered.flavor!r}")
        program = lowered.program
        if program is None:
            raise ValueError(
                "the program was freed after lowering; keep a reference "
                "to it until the system is built")
        if program.n_threads != config.n_cores:
            raise ValueError(
                f"program has {program.n_threads} threads but the machine "
                f"has {config.n_cores} cores (threads are pinned 1:1)")
        config.validate()
        self.config = config
        self.design = design
        self.lowered = lowered
        self.program = program

        self.env = Environment(tracer=tracer, metrics=metrics)
        # Pre-register tracks in a stable order so trace tids (and
        # therefore Perfetto row order) do not depend on which component
        # happens to emit first: cores, persist path, PMC, spec buffer.
        register_track = getattr(self.env.trace, "track_id", None)
        if self.env.trace.enabled and register_track is not None:
            for core_id in range(config.n_cores):
                register_track(f"core{core_id}")
            register_track("persist-path")
            register_track("pmc")
            register_track("spec-buffer")
        self.device = PMDevice(program.initial_heap,
                               initial_blocks=program.heap_blocks())
        self.image = MemoryImage(program.initial_heap)
        self.stall = StallController()
        self.interrupts = InterruptController()
        # One speculation buffer per PM controller (§5.3, §7); they share
        # the global stall controller and the interrupt report path.
        report = _misspeculation_reporter(self.env, self.interrupts)
        self.spec_buffers = [
            SpeculationBuffer(
                config.spec_buffer_entries,
                config.speculation_window_cycles,
                stall=self.stall, report=report,
                tracer=self.env.trace, metrics=self.env.metrics,
                name=f"spec-buffer{index}")
            for index in range(config.n_pm_controllers)]
        self.spec_buffer = self.spec_buffers[0]
        self.spec_ids = SpecIdFile(config.n_cores)
        self.persist_path = PersistPath(config, config.n_cores,
                                        metrics=self.env.metrics)
        self.lock_network = LockNetwork(config)
        self.locks = [Mutex(self.env, name=f"lock{i}")
                      for i in range(program.n_locks)]
        self.runtime = FailureAtomicRuntime(config.n_cores,
                                            recovery_mode=recovery_mode)

        design.bind(self)
        if config.n_pm_controllers == 1:
            self.pmc = PMController(self.env, config, self.device,
                                    design.build_pmc_policy(0))
        else:
            from .mem.pm_complex import PMCComplex
            policies = [design.build_pmc_policy(i)
                        for i in range(config.n_pm_controllers)]
            self.pmc = PMCComplex(self.env, config, self.device, policies)
        self.hierarchy = CacheHierarchy(
            self.env, config, self.pmc, self.image,
            bus_extra_cycles=design.bus_extra_cycles)

        self.cores: List[Core] = [
            Core(self, thread.thread_id, thread)
            for thread in lowered.threads]

        # OS layer: register this "process" so misspeculation interrupts
        # find their way to the failure-atomic runtime (§6.1).
        self.process = SimProcess(pid=1, name=program.name)
        self.process.map_range(DATA_BASE, LOG_BASE)
        self.process.map_range(
            LOG_BASE, LOG_BASE + config.n_cores * LOG_REGION_BYTES)
        self.interrupts.register_process(self.process,
                                         self.runtime.on_misspeculation)

        # Snapshot ladder (repro.snapshot.SnapshotLadder.install sets it);
        # None means the park/quiesce machinery is completely inert.
        self.snapshots = None

    # --------------------------------------------------------------- run

    def park_point(self, core: Core):
        """Called by a core at its FASE boundary; an Event to wait on when
        the snapshot ladder wants the machine quiesced, else None."""
        if self.snapshots is None:
            return None
        return self.snapshots.park_event(core)

    def launch(self):
        """Create every core's DES process; returns the all-done event."""
        processes = [self.env.process(core.run(), name=f"core{core.core_id}")
                     for core in self.cores]
        return self.env.all_of(processes)

    def advance(self, until: Optional[int] = None, stop_event=None) -> int:
        """Drive the simulation, re-entering the event loop whenever the
        heap drains because cores parked for a snapshot.  Without a
        ladder this is exactly one ``env.run`` call."""
        while True:
            self.env.run(until=until, stop_event=stop_event)
            if stop_event is not None and stop_event.triggered:
                return self.env.now
            if self.env.pending():
                # Stopped at the ``until`` bound mid-flight (a crash
                # point); parked cores are legitimate crash state.
                return self.env.now
            if self.snapshots is None or not self.snapshots.on_heap_drained():
                return self.env.now

    def run(self, until: Optional[int] = None) -> SimResult:
        """Simulate to completion (or to cycle ``until`` -- a crash)."""
        all_done = self.launch()
        self.advance(until=until, stop_event=all_done)
        if until is None:
            # Drain in-flight persistence (scheduled device updates).
            self.advance()
        return self.result()

    def result(self) -> SimResult:
        committed = self.runtime.total_commits
        spec_buffer_stats = self._spec_buffer_stats()
        stats = {
            "design": self.design.stats.as_dict(),
            "runtime": self.runtime.stats.as_dict(),
            "pmc": self.pmc.stats.as_dict(),
            "hierarchy": self.hierarchy.stats.as_dict(),
            "spec_buffer": spec_buffer_stats.as_dict(),
            "interrupts": self.interrupts.stats.as_dict(),
        }
        core_stats = {}
        for core in self.cores:
            core_stats[f"core{core.core_id}"] = core.stats.as_dict()
        stats["cores"] = core_stats
        timeseries = None
        if self.env.metrics.enabled:
            to_dict = getattr(self.env.metrics, "to_dict", None)
            if to_dict is not None:
                timeseries = to_dict()
        return SimResult(
            design=self.design.name,
            workload=self.program.name,
            n_cores=self.config.n_cores,
            cycles=self.env.now,
            fases_committed=committed,
            fases_aborted=self.runtime.total_aborts,
            load_misspeculations=spec_buffer_stats["load_misspeculations"],
            store_misspeculations=spec_buffer_stats["store_misspeculations"],
            stale_loads=self.hierarchy.stats["stale_reads"],
            spec_buffer_overflows=spec_buffer_stats["overflows"],
            freq_ghz=self.config.freq_ghz,
            stats=stats,
            timeseries=timeseries,
        )

    def _spec_buffer_stats(self) -> Counter:
        merged = Counter()
        for buffer in self.spec_buffers:
            merged.merge(buffer.stats)
        return merged

    def persisted_snapshot(self) -> Dict[int, int]:
        """The PM image that would survive a power failure right now."""
        return self.device.snapshot()

    # ------------------------------------------------------- snapshotting

    def capture_state(self) -> dict:
        """Capture the complete dynamic machine state as plain data.

        Only legal at a quiesce point (empty event heap; enforced by the
        environment).  Deliberately captures *no* configuration-derived
        values -- latencies, capacities, geometries come from rebuilding
        a system from its spec.

        The payload is made of fresh containers: no list, dict or set in
        it is shared with the live machine, so clearing or overwriting
        any of them changes neither :meth:`state_fingerprint` nor the
        next capture.  The one shared part is the trace prefix's rows,
        the recorder's own immutable tuples (their args dicts are never
        written after recording).  Callers rely on this to restore or
        encode a payload without copying it first.
        """
        from .snapshot import SNAPSHOT_SCHEMA_VERSION
        env_state = self.env.capture_state()
        components = {
            "stall": self.stall.capture_state(),
            "spec_buffers": [buffer.capture_state()
                             for buffer in self.spec_buffers],
            "spec_ids": self.spec_ids.capture_state(),
            "persist_path": self.persist_path.capture_state(),
            "lock_network": self.lock_network.capture_state(),
            "locks": [lock.capture_state() for lock in self.locks],
            "runtime": self.runtime.capture_state(),
            "design": self.design.capture_state(),
            "pmc": self.pmc.capture_state(),
            "device": self.device.capture_state(),
            "hierarchy": self.hierarchy.capture_state(),
            "cores": [core.capture_state() for core in self.cores],
            "interrupts": self.interrupts.capture_state(),
        }
        payload = {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "design": self.design.name,
            "workload": self.program.name,
            "cycle": env_state["now"],
            # Outside "components" on purpose: the heap-tie sequence
            # counter and the trace prefix are not architectural state,
            # so the fingerprint must not see them.
            "sequence": env_state["sequence"],
            "components": components,
        }
        if self.snapshots is not None:
            payload["ladder"] = self.snapshots.capture_state()
        if self.env.trace.enabled and hasattr(self.env.trace,
                                              "capture_state"):
            payload["trace"] = self.env.trace.capture_state()
        return payload

    def restore_state(self, payload: dict) -> None:
        """Restore a captured state into this (freshly built, identically
        or compatibly configured) system."""
        from .snapshot import SNAPSHOT_SCHEMA_VERSION
        from .snapshot.store import SnapshotError
        version = payload.get("schema_version")
        if version != SNAPSHOT_SCHEMA_VERSION:
            raise SnapshotError(
                f"snapshot schema {version!r} does not match "
                f"{SNAPSHOT_SCHEMA_VERSION}")
        self.env.restore_state({"now": payload["cycle"],
                                "sequence": payload["sequence"]})
        c = payload["components"]
        self.stall.restore_state(c["stall"])
        if len(c["spec_buffers"]) != len(self.spec_buffers):
            raise SnapshotError(
                f"snapshot has {len(c['spec_buffers'])} speculation "
                f"buffers, this system has {len(self.spec_buffers)}")
        for buffer, sub in zip(self.spec_buffers, c["spec_buffers"]):
            buffer.restore_state(sub)
        self.spec_ids.restore_state(c["spec_ids"])
        self.persist_path.restore_state(c["persist_path"])
        self.lock_network.restore_state(c["lock_network"])
        if len(c["locks"]) != len(self.locks):
            raise SnapshotError(
                f"snapshot has {len(c['locks'])} locks, this system "
                f"has {len(self.locks)}")
        for lock, sub in zip(self.locks, c["locks"]):
            lock.restore_state(sub)
        self.runtime.restore_state(c["runtime"])
        self.design.restore_state(c["design"])
        self.pmc.restore_state(c["pmc"])
        self.device.restore_state(c["device"])
        self.hierarchy.restore_state(c["hierarchy"])
        if len(c["cores"]) != len(self.cores):
            raise SnapshotError(
                f"snapshot has {len(c['cores'])} cores, this system "
                f"has {len(self.cores)}")
        for core, sub in zip(self.cores, c["cores"]):
            core.restore_state(sub)
        self.interrupts.restore_state(c["interrupts"])
        if self.snapshots is not None and "ladder" in payload:
            self.snapshots.restore_state(payload["ladder"])
        if ("trace" in payload and self.env.trace.enabled
                and hasattr(self.env.trace, "restore_state")):
            self.env.trace.restore_state(payload["trace"])

    def state_fingerprint(self) -> str:
        """Stable hash of the architectural state (see
        :func:`repro.snapshot.fingerprint_state`); equal fingerprints at
        equal cycles mean restore-then-replay did not diverge."""
        from .snapshot import fingerprint_state
        return fingerprint_state(self.capture_state())


def build_system(program: Program, design: Design,
                 config: Optional[SystemConfig] = None,
                 recovery_mode: str = "lazy",
                 log_mode: str = "undo",
                 tracer=None, metrics=None) -> System:
    """Convenience: lower ``program`` for ``design`` and assemble."""
    from .config import table3_config
    if config is None:
        config = table3_config(n_cores=program.n_threads)
    lowered = lower_program(program, design.flavor, log_mode=log_mode)
    return System(config, design, lowered, recovery_mode=recovery_mode,
                  tracer=tracer, metrics=metrics)
