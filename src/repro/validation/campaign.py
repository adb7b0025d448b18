"""Crash-consistency campaigns: plan, fan out, judge, shrink, report.

One *trial* = run a workload under a design with a fault model armed,
cut (or virtually cut) at a planned crash cycle, recover, and judge the
outcome twice: the workload's own ``validate_recovered`` structural
check on the recovered image, and the :class:`PersistOrderOracle` on
the run's trace-event history truncated at the crash horizon.  A
*campaign* is a planned set of trials per ``workload x design`` cell,
fanned out as cell-affine chunks through
:meth:`ParallelExecutor.map_batched`, with every failing cell shrunk to
a minimal reproducing crash cycle and everything summarised in a
versioned :class:`CampaignReport`.

Trials are pure functions of their :class:`TrialSpec` (fixed seed, no
wall-clock inputs), which is what makes fan-out order irrelevant,
failures replayable, and shrinking sound.  :func:`run_trial` is the
fresh-build definition of one trial; campaigns serve the same outcome
from a :class:`_ResidentCell`, which cuts one live run of the cell at
each crash cycle in turn.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, fields, replace
from typing import (Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from ..config import table3_config
from ..obsv.bus import get_bus
from ..persistency import design_by_name
from ..runtime.crash import build_crash_system
from ..runtime.recovery import run_recovery
from ..sim.trace import TraceRecorder
from ..snapshot import (SNAPSHOT_SCHEMA_VERSION, SnapshotError,
                        SnapshotLadder, SnapshotStore, nearest_rung,
                        restore_nearest)
from ..snapshot.store import decode_payload
from ..telemetry import get_logger
from ..workloads import BENCHMARKS
from .faults import FaultModel, fault_by_name
from .history import (FASE, PERSIST, WRITEBACK, events_to_history,
                      history_from_recorder, truncate_history)
from .oracle import PersistOrderOracle
from .planners import RunProfile, planner_by_name
from .shrink import shrink_crash_cycle

CAMPAIGN_SCHEMA_VERSION = 1

log = get_logger("validation.campaign")


@dataclass(frozen=True)
class TrialSpec:
    """One crash trial, fully determined (picklable, hashable)."""

    workload: str
    design: str
    fault: str = "power-cut"
    crash_cycle: int = 0
    n_threads: int = 2
    fases_per_thread: int = 10
    seed: int = 42
    log_mode: str = "undo"
    # Snapshot ladder: every K persist events, 0 = off.  A non-zero K
    # changes trial timing (parking is part of the timing universe), so
    # it participates in the cell identity alongside seed and threads.
    snapshot_every: int = 0
    # Where rungs live on disk; None keeps the ladder timing-only (no
    # capture, no warm restore) -- used when trials must replay a
    # laddered canonical run without a shared filesystem.
    snapshot_dir: Optional[str] = None

    def __post_init__(self):
        if self.workload not in BENCHMARKS:
            raise ValueError(f"unknown benchmark {self.workload!r}; "
                             f"choose from {sorted(BENCHMARKS)}")
        try:
            design_by_name(self.design)
            fault_by_name(self.fault)
        except KeyError as exc:
            # ValueError is the CLI's "user error" class (exit 2, no
            # traceback); bad names are exactly that.
            raise ValueError(str(exc)) from None
        if self.crash_cycle < 0:
            raise ValueError("crash_cycle must be >= 0")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")

    def describe(self) -> str:
        return (f"{self.workload}/{self.design} {self.fault}"
                f"@{self.crash_cycle}")


def _cell_index_name(spec: TrialSpec) -> str:
    """Stable rung-index name for a cell: every spec field except the
    crash cycle (all trials of a cell restore from the same canonical
    laddered run) and the store location (moving the store must not
    orphan its own indexes)."""
    fields = asdict(spec)
    fields.pop("crash_cycle")
    fields.pop("snapshot_dir")
    fields["snapshot_schema"] = SNAPSHOT_SCHEMA_VERSION
    blob = json.dumps(fields, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:24]


# Program materialisation (workload.build) dominates trial build time at
# large fase counts, and every trial of a cell builds the identical
# program.  Memoise the built pair per process: workload and program are
# immutable after build() (the system copies the initial heap), so trials
# stay pure functions of their spec.  An LRU of _RESIDENT_CELL_CAP
# entries, so a process running campaign after campaign (over many
# seeds) does not keep every program -- with its memoised lowerings --
# it ever built.
_PROGRAM_CACHE: \
    "OrderedDict[Tuple[str, int, int, int], Tuple[object, object]]" \
    = OrderedDict()


def _built_program(spec: TrialSpec) -> Tuple[object, object]:
    key = (spec.workload, spec.n_threads, spec.fases_per_thread, spec.seed)
    built = _PROGRAM_CACHE.get(key)
    if built is None:
        workload = BENCHMARKS[spec.workload](seed=spec.seed)
        program = workload.build(spec.n_threads, spec.fases_per_thread)
        built = _PROGRAM_CACHE[key] = (workload, program)
        while len(_PROGRAM_CACHE) > _RESIDENT_CELL_CAP:
            _PROGRAM_CACHE.popitem(last=False)
    else:
        _PROGRAM_CACHE.move_to_end(key)
    return built


def _build(spec: TrialSpec, capture: Union[bool, Iterable[int]] = False,
           index_name: Optional[str] = None):
    """Build the traced system for one trial, fault armed.  With a
    non-zero ``snapshot_every`` a ladder is installed; ``capture`` is
    the ladder's: every rung for the canonical profile run, none
    (identical parking) for trials, or the rung numbers the crash-state
    checker will restore.  ``index_name`` is the cell's
    :func:`_cell_index_name`, for callers that already hold it."""
    fault = fault_by_name(spec.fault)
    # No event bound: the oracle judges the whole history, and a bounded
    # recorder would drop its tail silently (no list reaches sys.maxsize
    # items).  The bound protects only the trace and profile exports.
    recorder = TraceRecorder(max_events=sys.maxsize)
    config = table3_config(n_cores=spec.n_threads,
                           **fault.config_overrides())
    workload, system = build_crash_system(
        BENCHMARKS[spec.workload], spec.design, spec.n_threads,
        spec.fases_per_thread, spec.seed, config, log_mode=spec.log_mode,
        tracer=recorder, prebuilt=_built_program(spec))
    ladder = None
    if spec.snapshot_every:
        store = (SnapshotStore(spec.snapshot_dir)
                 if spec.snapshot_dir else None)
        ladder = SnapshotLadder(
            system, spec.snapshot_every, store=store,
            index_name=index_name or _cell_index_name(spec),
            capture=capture).install()
    fault.arm(system)
    return workload, system, fault, recorder, ladder


def _oracle_for(system) -> PersistOrderOracle:
    """The oracle configured for this system's design: the replay must
    mirror the hardware (same window), and the stale-read pattern only
    exists where writebacks are dropped *and* a speculation buffer is
    expected to catch the resulting staleness (PMEM-Spec).  A run whose
    buffer overflowed also skips the replay: overflow evicts the oldest
    entry early (with an all-core stall), which an unbounded replay
    cannot mirror, and the hardware's miss there is by design."""
    design = system.design
    overflows = sum(buffer.stats["overflows"]
                    for buffer in system.spec_buffers)
    return PersistOrderOracle(
        window=system.config.speculation_window_cycles,
        check_stale_reads=(design.drops_llc_writebacks
                           and design.uses_persist_path
                           and overflows == 0))


def _narrate_start(crash_cycle: int, source: str,
                   rung: Optional[Dict] = None,
                   error: Optional[str] = None) -> None:
    """The one record of where a trial started (no report names a
    rung): its ``snapshot_restore`` event, with the start taken, the
    rung restored, if any, and why the store could not return the rung
    the start wanted (a damaged store costs O(run) per trial instead of
    O(segment), which only this event shows)."""
    bus = get_bus()
    if bus.enabled:
        fields = ({} if error is None
                  else {"outcome": "cold_fallback", "error": error})
        bus.emit("snapshot_restore", crash_cycle=crash_cycle,
                 rung_cycle=None if rung is None else rung["cycle"],
                 rung=None if rung is None else rung["rung"],
                 source=source, **fields)


def _cut(system, fault, spec: TrialSpec, all_done) -> int:
    """The acquire half of a trial: drive a launched, fault-armed
    system (``all_done`` is its launch event) to the crash cycle and
    apply the fault there; returns the horizon the judged state is
    taken at."""
    env = system.env
    system.advance(until=spec.crash_cycle, stop_event=all_done)
    if env.now < spec.crash_cycle:
        # Cores finished early: power stays on, so the persistence
        # drain proceeds until the planned cut.
        system.advance(until=spec.crash_cycle)
    fault.at_crash(system, spec.crash_cycle)
    if fault.run_to_completion:
        # Virtual failures leave the machine on: the runtime's
        # abort/retry recovery must carry the run to a clean finish.
        system.advance(stop_event=all_done)
        system.advance()
    return env.now


#: A structural verdict on one persisted image: the fault's notes on
#: its mutation, the threads recovery rolled back, and the workload's
#: messages on the recovered image.
Verdict = Tuple[List[str], List[int], List[str]]

#: TrialSpec's fields, in order: every one is a scalar, so an outcome's
#: ``spec`` is a flat copy (what ``asdict`` returns, without its
#: recursive deep copy).
_SPEC_FIELDS = tuple(field.name for field in fields(TrialSpec))


def _judge_image(spec: TrialSpec, workload, system, fault) -> Verdict:
    """The structural half of the judge: mutate a copy of the persisted
    image as the fault says, recover it, and hand the recovered image to
    the workload's validator.  Reads the system, never mutates it."""
    snapshot = system.persisted_snapshot()
    fault_notes = fault.mutate_snapshot(snapshot, spec.n_threads)
    report = run_recovery(snapshot, spec.n_threads,
                          log_mode=spec.log_mode)
    return (fault_notes, report.rolled_back_threads,
            workload.validate_recovered(report.image))


def _judge(spec: TrialSpec, workload, system, verdict: Verdict,
           history: list, horizon: int) -> Dict:
    """The outcome of a trial: ``verdict`` (:func:`_judge_image` of the
    cut's persisted image) plus ``history`` (the run's oracle history
    from cycle 0) replayed through the persist-order oracle.  Reads the
    system, never advances or mutates it; records nothing of where the
    trial started, so an outcome is a function of its spec alone."""
    fault_notes, rolled_back, messages = verdict
    violations = [
        {"kind": "structural", "cycle": spec.crash_cycle,
         "subject": workload.name, "detail": message}
        for message in messages]

    history = truncate_history(history, horizon)
    violations.extend(v.to_dict() for v in _oracle_for(system).check(history))

    return {
        "spec": {name: getattr(spec, name) for name in _SPEC_FIELDS},
        "crash_cycle": spec.crash_cycle,
        "horizon": horizon,
        "commits_before_crash": system.runtime.total_commits,
        "rolled_back_threads": list(rolled_back),
        "history_events": len(history),
        "fault_notes": list(fault_notes),
        "violations": violations,
        "consistent": not violations,
    }


def run_trial(spec: TrialSpec) -> Dict:
    """Execute one trial from a fresh build; returns a JSON-ready
    outcome dict.

    This is the definition of a trial: shrinking runs it, and every
    outcome a :class:`_ResidentCell` serves must equal it.  A laddered
    trial restores its nearest stored rung, but only for speed.
    """
    workload, system, fault, recorder, ladder = _build(spec)
    rung = error = None
    if ladder is not None and ladder.store is not None:
        try:
            rung = restore_nearest(system, ladder.store,
                                   ladder.index_name, spec.crash_cycle)
        except SnapshotError as exc:
            # A corrupt or missing store degrades to a cold start.
            log.warning("snapshot restore failed (%s); starting cold", exc)
            error = str(exc)
    _narrate_start(spec.crash_cycle, "cold" if rung is None else "store",
                   rung, error)
    launch = system.launch()
    horizon = _cut(system, fault, spec, launch)
    outcome = _judge(spec, workload, system,
                     _judge_image(spec, workload, system, fault),
                     history_from_recorder(recorder), horizon)
    # The cut run is dropped with the system: abandoning its launch lets
    # reference counting free it (docs/ENGINE.md).
    system.env.abandon(launch)
    return outcome


# ------------------------------------------------- resident batch path


#: Cells held resident per worker process.  Campaign chunks are
#: cell-affine, so a worker rarely juggles more than a couple.  Also the
#: program cache's size.
_RESIDENT_CELL_CAP = 4

_RESIDENT_CELLS: "OrderedDict[TrialSpec, _ResidentCell]" = OrderedDict()


class _ResidentCell:
    """One campaign cell kept resident in the worker process.

    The cell keeps a *live run*: the fault-armed system it last drove,
    positioned at the previous trial's cut.  Every trial of a cell cuts
    the same deterministic execution, so a trial at cycle ``c``
    continues the live run (source ``forward``) while it is on the
    canonical trajectory, at or before ``c`` and not behind the nearest
    rung at or before ``c`` in the cell's rung index; otherwise it
    restarts from that rung, read from the rung store and restored in
    place (``store``), or from a fresh build (``cold``).  Only a
    restart reads rung bytes; one whose rung the store cannot return
    continues the live run when it can, and builds cold otherwise.
    Trials in ascending order -- the order planners emit -- thus cost
    one run per cell instead of the sum of their crash cycles.

    Outcomes equal :func:`run_trial`'s whichever start was taken:
    restore fully resets every component (the invariant the
    restore-equivalence suite proves), and no outcome records its start
    (:func:`_narrate_start` does), so none depends on what the store
    held.  A cell without a rung store never captures or restores.

    The cell also keeps the structural verdict of the image its live
    run's previous cut persisted, with the device's persist counts at
    that cut.  Every change to the persisted image goes through
    ``persist_store`` or ``persist_block``, and both bump a count, so a
    ``forward`` trial whose cut leaves both counts unchanged judges the
    same image: it reuses the verdict, and computes only its own oracle
    result, commits, horizon and history.  Any restart of the live run
    drops the verdict.
    """

    def __init__(self, spec: TrialSpec):
        self.store = (SnapshotStore(spec.snapshot_dir)
                      if spec.snapshot_every and spec.snapshot_dir
                      else None)
        self.index_name = _cell_index_name(spec)
        # The cell's rung index, written by the profiling run before any
        # trial: without one every restart is cold.
        self._rungs: List[Dict] = []
        if self.store is not None:
            try:
                self._rungs = self.store.load_index(self.index_name)
            except SnapshotError as exc:
                log.warning("snapshot index unavailable (%s)", exc)
        # The live run: ``_launch`` is its all-done event (None until a
        # run starts), ``_canonical`` whether it is still on the
        # canonical trajectory.
        self.workload = self.system = self.fault = self.recorder = None
        self._launch = None
        self._canonical = False
        # (events converted, oracle history) of the live run's prefix.
        self._history: Tuple[int, list] = (0, [])
        # ((stores, blocks) persisted, verdict) at the live run's
        # previous cut.
        self._verdict: Optional[Tuple[Tuple[int, int], Verdict]] = None

    def _restore_payload(self, rung: Optional[Dict]
                         ) -> Tuple[Optional[Dict], str]:
        """A restart's start: (``rung`` with its verified store bytes
        under ``blob``, "store"), or (None, "cold") without a rung.
        Raises :class:`SnapshotError` when the store cannot return the
        rung's bytes."""
        if rung is None:
            return None, "cold"
        return {**rung, "blob": self.store.get(rung["key"])}, "store"

    def _continues(self, crash_cycle: int, rung: Optional[Dict]) -> bool:
        """Whether the live run can serve a trial at ``crash_cycle``
        instead of a restart from ``rung``."""
        return (self._canonical
                and (rung["cycle"] if rung is not None else 0)
                <= self.system.env.now <= crash_cycle)

    def _restart(self, spec: TrialSpec, rung: Optional[Dict]) -> None:
        """Start a new live run from ``rung``, or from a fresh build.
        Same order as :func:`run_trial`: arm the fault, then restore."""
        # The live run's converted history, while it is on the canonical
        # trajectory (every trial converts it up to its cut).
        live = self._history if self._canonical else None
        self.close()
        self._verdict = None
        if rung is None or self.system is None:
            self.workload, self.system, self.fault, self.recorder, _ = \
                _build(spec, index_name=self.index_name)
        else:
            self.fault = fault_by_name(spec.fault)
            self.fault.arm(self.system)
        if rung is not None:
            self.system.restore_state(decode_payload(rung["blob"],
                                                     rung["key"]))
        # A canonical live run that has not reached the new start has
        # recorded a prefix of its trace, so its converted history is
        # the new run's too: _live_history extends it from there.
        self._history = (live if live is not None
                         and live[0] <= len(self.recorder) else (0, []))
        self._launch = self.system.launch()
        self._canonical = True

    def close(self) -> None:
        """Abandon the live run's launch, so that a restore into its
        system, or dropping it, frees the run by reference counting
        instead of leaving its processes to the cyclic collector."""
        if self._launch is not None:
            self.system.env.abandon(self._launch)
            self._launch = None
            self._canonical = False

    def _live_history(self) -> list:
        """The live run's oracle history, converting only the events
        recorded since the previous trial."""
        count, history = self._history
        if len(self.recorder) > count:
            history = history + events_to_history(
                self.recorder.events(count))
            self._history = (len(self.recorder), history)
        return history

    def run_trial(self, spec: TrialSpec) -> Dict:
        rung, error = nearest_rung(self._rungs, spec.crash_cycle), None
        if self._continues(spec.crash_cycle, rung):
            rung, source = None, "forward"
        else:
            try:
                rung, source = self._restore_payload(rung)
            except SnapshotError as exc:
                log.warning("snapshot restore failed (%s)", exc)
                rung, source, error = None, "cold", str(exc)
            if error is not None and self._continues(spec.crash_cycle,
                                                     None):
                source = "forward"
            else:
                self._restart(spec, rung)
        _narrate_start(spec.crash_cycle, source, rung, error)
        horizon = _cut(self.system, self.fault, spec, self._launch)
        if not _keeps_running(self.fault):
            self._canonical = False
        device = self.system.device
        persisted = (device.stores_persisted, device.blocks_persisted)
        if self._verdict is None or self._verdict[0] != persisted:
            self._verdict = (persisted, _judge_image(
                spec, self.workload, self.system, self.fault))
        return _judge(spec, self.workload, self.system, self._verdict[1],
                      self._live_history(), horizon)


def _keeps_running(fault: FaultModel) -> bool:
    """True when ``fault`` leaves the machine untouched at the crash,
    so the run it cut is still the canonical execution and a later
    trial may continue it.  Running to completion or overriding
    :meth:`FaultModel.at_crash` (``virtual-misspec`` does both) changes
    the machine."""
    return (not fault.run_to_completion
            and type(fault).at_crash is FaultModel.at_crash)


def _resident_key(spec: TrialSpec) -> TrialSpec:
    """A cell's key: the spec without its crash cycle (every trial of a
    cell continues or restores the same canonical run)."""
    return replace(spec, crash_cycle=0)


def _resident_cell(spec: TrialSpec) -> _ResidentCell:
    key = _resident_key(spec)
    cell = _RESIDENT_CELLS.get(key)
    if cell is None:
        cell = _ResidentCell(spec)
        _RESIDENT_CELLS[key] = cell
        while len(_RESIDENT_CELLS) > _RESIDENT_CELL_CAP:
            _RESIDENT_CELLS.popitem(last=False)[1].close()
    else:
        _RESIDENT_CELLS.move_to_end(key)
    return cell


def _evict_resident(spec: TrialSpec) -> None:
    """Drop ``spec``'s resident cell, abandoning its live run."""
    cell = _RESIDENT_CELLS.pop(_resident_key(spec), None)
    if cell is not None:
        cell.close()


def run_trial_batch(specs: Sequence[TrialSpec]) -> List[Dict]:
    """Execute a chunk of trials against resident cells, in order.

    Module-level so :meth:`ParallelExecutor.map_batched` can ship it to
    pool workers; the resident cache is per process, so a worker that
    receives several chunks of one cell keeps one live run across them.
    Any :class:`SnapshotError` the resident machinery itself cannot
    absorb evicts the cell and re-runs that trial through the plain
    cold path -- outcomes never depend on cache health.  Any other
    exception evicts the cell too before it propagates: the cell's live
    run may be half-advanced, and a retry in this process must not
    continue from it.
    """
    outcomes: List[Dict] = []
    for spec in specs:
        try:
            outcomes.append(_resident_cell(spec).run_trial(spec))
        except SnapshotError as exc:
            _evict_resident(spec)
            log.warning("resident trial failed (%s); re-running cold",
                        exc)
            outcomes.append(run_trial(spec))
        except BaseException:
            _evict_resident(spec)
            raise
    return outcomes


def _batch_key(spec: TrialSpec) -> Tuple[str, str]:
    return spec.workload, spec.design


def _describe_batch(specs: Sequence[TrialSpec]) -> str:
    first = specs[0]
    return f"{first.workload}/{first.design} x{len(specs)}"


def profile_cell(spec: TrialSpec) -> RunProfile:
    """Profile the uninterrupted run of one cell (fault still armed, so
    crash points land inside the *perturbed* run's duration).  With a
    snapshot store configured this is also the canonical run that fills
    the cell's rung ladder."""
    _workload, system, _fault, recorder, ladder = _build(
        spec, capture=spec.snapshot_dir is not None)
    result = system.run()
    if ladder is not None:
        ladder.flush_index()
    history = history_from_recorder(recorder)
    return RunProfile(
        total_cycles=result.cycles,
        fase_intervals=[(event.cycle, event.end) for event in history
                        if event.kind == FASE],
        commit_cycles=[when for _tid, _fid, when
                       in system.runtime.commit_log],
        issue_end=max((core.finish_time or 0) for core in system.cores),
        persist_cycles=sorted({event.cycle for event in history
                               if event.kind in (PERSIST, WRITEBACK)}),
    )


# A patch site of benchmarks/e2e/layers.py's ``validation.profile`` span,
# which only a change to the benchmark may edit.
profile_cell_seeding = profile_cell


def snapshot_cell(spec: TrialSpec) -> List[Dict]:
    """Run one cell's canonical laddered run, filling its on-disk rung
    ladder, and return the stored rung index entries."""
    if not (spec.snapshot_every and spec.snapshot_dir):
        raise ValueError("snapshot capture needs snapshot_every > 0 "
                         "and a snapshot_dir")
    profile_cell(spec)
    store = SnapshotStore(spec.snapshot_dir)
    return store.load_index(_cell_index_name(spec))


def verify_cell(spec: TrialSpec) -> Dict:
    """The standing determinism check for one cell's stored ladder.

    Runs the cell cold (laddered, no capture) to get the reference
    end-of-run fingerprint, then restores *every* stored rung into a
    fresh system and replays the tail; each replay must land on the
    reference fingerprint exactly.  Returns ``{"reference", "checks",
    "ok"}`` with one check dict per rung; a rung the store cannot return
    intact fails its check with the store's ``error`` and the remaining
    rungs are still checked.
    """
    if not (spec.snapshot_every and spec.snapshot_dir):
        raise ValueError("snapshot verify needs snapshot_every > 0 "
                         "and a snapshot_dir")
    store = SnapshotStore(spec.snapshot_dir)
    index = store.load_index(_cell_index_name(spec))
    _workload, system, _fault, _recorder, _ladder = _build(spec)
    system.run()
    reference = system.state_fingerprint()
    checks = []
    for rung in index:
        check = {"rung": rung["rung"], "cycle": rung["cycle"]}
        checks.append(check)
        try:
            payload = decode_payload(store.get(rung["key"]), rung["key"])
        except SnapshotError as exc:
            check.update(fingerprint_ok=False, error=str(exc))
            continue
        _workload, system, _fault, _recorder, _ladder = _build(spec)
        system.restore_state(payload)
        done = system.launch()
        system.advance(stop_event=done)
        system.advance()
        check["fingerprint_ok"] = system.state_fingerprint() == reference
    return {"reference": reference, "checks": checks,
            "ok": bool(checks) and all(c["fingerprint_ok"]
                                       for c in checks)}


# --------------------------------------------------------------- report


class CampaignReport:
    """Structured outcome of one campaign (JSON artifact + table rows)."""

    def __init__(self, params: Dict, cells: List[Dict],
                 elapsed_s: float = 0.0):
        self.schema_version = CAMPAIGN_SCHEMA_VERSION
        self.params = params
        self.cells = cells
        self.elapsed_s = elapsed_s
        # Versioned durable-state enumeration section (set by
        # run_campaign when crash_states is on): per-cell payloads from
        # repro.crashstates.checker.check_cell.
        self.crash_states: Optional[Dict] = None

    @property
    def total_trials(self) -> int:
        return sum(cell["trials"] for cell in self.cells)

    @property
    def total_failures(self) -> int:
        return sum(len(cell["failures"]) for cell in self.cells)

    @property
    def consistent(self) -> bool:
        return self.total_failures == 0

    @property
    def crash_states_ok(self) -> bool:
        """True when no enumerated durable state failed (vacuously true
        without a crash_states section)."""
        if self.crash_states is None:
            return True
        return all(cell["consistent"]
                   for cell in self.crash_states["cells"])

    def violation_kinds(self) -> List[str]:
        kinds = {violation["kind"] for cell in self.cells
                 for failure in cell["failures"]
                 for violation in failure["violations"]}
        return sorted(kinds)

    def rows(self) -> List[Dict]:
        """Flat per-cell summaries for the harness table renderer."""
        rows = []
        for cell in self.cells:
            shrunk = cell.get("shrink")
            rows.append({
                "workload": cell["workload"],
                "design": cell["design"],
                "trials": cell["trials"],
                "failures": len(cell["failures"]),
                "violation_kinds": ",".join(cell["violation_kinds"]) or "-",
                "minimal_cycle": (shrunk["minimal_cycle"]
                                  if shrunk else None),
            })
        return rows

    def to_dict(self) -> Dict:
        payload = {
            "schema_version": self.schema_version,
            "params": self.params,
            "elapsed_s": self.elapsed_s,
            "total_trials": self.total_trials,
            "total_failures": self.total_failures,
            "consistent": self.consistent,
            "violation_kinds": self.violation_kinds(),
            "cells": self.cells,
        }
        if self.crash_states is not None:
            payload["crash_states"] = self.crash_states
            payload["crash_states_ok"] = self.crash_states_ok
        return payload

    def fingerprint(self) -> str:
        """:func:`report_fingerprint` of :meth:`to_dict` -- the
        reproducibility contract ``validate --seed`` prints and tests
        pin."""
        return report_fingerprint(self.to_dict())

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str) -> str:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")
        return path

    def __repr__(self) -> str:
        status = "OK" if self.consistent else (
            f"{self.total_failures} FAILURES {self.violation_kinds()}")
        return (f"CampaignReport({len(self.cells)} cells, "
                f"{self.total_trials} trials: {status})")


#: Report fields that record wall-clock time or where a store lived,
#: not an outcome (``params.snapshot_dir``, each failure's
#: ``spec.snapshot_dir``, the crash-states ``timings``).
_VOLATILE_REPORT_KEYS = frozenset({"elapsed_s", "timings", "snapshot_dir"})


def report_fingerprint(payload: Dict) -> str:
    """Content hash of a report payload, with the volatile keys dropped
    at any depth.  Identical campaigns fingerprint equally wherever
    their stores lived and however long they took, and so does a report
    reloaded from its JSON artifact (the payload is normalised through
    a JSON round trip first).  No report names a rung or the start a
    trial took, so a report is a function of its inputs whatever the
    rung store held."""
    def scrub(value):
        if isinstance(value, dict):
            return {key: scrub(item) for key, item in value.items()
                    if key not in _VOLATILE_REPORT_KEYS}
        if isinstance(value, list):
            return [scrub(item) for item in value]
        return value

    scrubbed = scrub(json.loads(json.dumps(payload)))
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ------------------------------------------------------------- campaign


def _cell_rng(seed: int, workload: str, design: str,
              round_index: int) -> random.Random:
    # String seeding is stable across processes and Python runs
    # (unlike hash()), so every cell's sample is reproducible.
    return random.Random(f"{seed}:{workload}:{design}:{round_index}")


#: Crash cycles enumerated per cell when crash_states is on: a seeded
#: sample of the cycles the trial rounds already tried.
_CRASH_STATE_MAX_CYCLES = 12
#: Rung-ladder target for the crashstates canonical run when the
#: campaign itself runs unladdered.
_CRASH_STATE_RUNGS = 16


def run_campaign(workloads: Sequence[str], designs: Sequence[str],
                 planner: str = "stratified", fault: str = "power-cut",
                 budget: int = 200, seed: int = 42,
                 n_threads: int = 2, fases_per_thread: int = 10,
                 log_mode: str = "undo", shrink: bool = True,
                 executor=None,
                 snapshot_dir: Optional[str] = None,
                 snapshot_every: int = 0,
                 snapshot_rungs: int = 0,
                 batch: int = 0,
                 crash_states: bool = False,
                 image_budget: int = 64) -> CampaignReport:
    """Run a full campaign over the ``workloads x designs`` grid.

    ``budget`` is the trial budget *per cell*.  ``executor`` is a
    :class:`repro.harness.ParallelExecutor` (or anything with its
    ``map`` and ``map_batched``); ``None`` runs serially -- the
    package never constructs a harness object itself, so the
    dependency points one way only.

    With ``snapshot_every > 0`` and a ``snapshot_dir``, the profiling
    pass doubles as the canonical laddered run per cell, and each trial
    restores the nearest rung at or before its crash cycle instead of
    simulating from cycle 0 -- O(segment) per trial instead of O(run).

    ``snapshot_rungs > 0`` sizes the ladder per cell instead: each cell
    gets ``snapshot_every = persists // snapshot_rungs`` from a quick
    unladdered probe, so persist-dense and persist-sparse cells both
    land ~``snapshot_rungs`` rungs (a grid-wide interval gives one cell
    tails too long to matter and another a capture bill too high to
    amortise).  Overrides ``snapshot_every``.

    With ``crash_states`` on, every cell additionally runs the
    durable-state enumeration oracle (:mod:`repro.crashstates`): a
    seeded sample of the cell's tried crash cycles is re-acquired by
    rung-restore, the design's formal model enumerates up to
    ``image_budget`` durable images per cycle, and recovery must
    converge from every one.  Results land in the report's versioned
    ``crash_states`` section; :attr:`CampaignReport.crash_states_ok`
    gates on them.

    Trials run cell-affine: they ship as (cell, chunk) tasks through
    :meth:`ParallelExecutor.map_batched` (or run through
    :func:`run_trial_batch` in-process when there is no executor), and
    each process serves a cell's trials from one resident live run
    (:class:`_ResidentCell`), in the ascending crash-cycle order the
    planners emit.  ``batch > 0`` only caps the trials per chunk (0 =
    one chunk per cell); smaller chunks spread a cell over more
    workers.  The profiling/probe passes fan out over cells through
    the executor too.  Outcomes are byte-identical to :func:`run_trial`
    whatever the executor or chunking -- they change only where the
    work runs and what it costs.
    """
    started = time.perf_counter()
    planner_obj = planner_by_name(planner)
    bus = get_bus()
    cells: List[Tuple[str, str]] = [
        (workload, design) for workload in workloads for design in designs]
    bus.emit("campaign_start", workloads=list(workloads),
             designs=list(designs), planner=planner, fault=fault,
             budget=budget)

    cell_every: Dict[Tuple[str, str], int] = {}

    def base_spec(workload: str, design: str) -> TrialSpec:
        every = cell_every.get((workload, design), snapshot_every)
        return TrialSpec(workload=workload, design=design, fault=fault,
                         crash_cycle=0, n_threads=n_threads,
                         fases_per_thread=fases_per_thread, seed=seed,
                         log_mode=log_mode, snapshot_every=every,
                         snapshot_dir=snapshot_dir)

    def profile_cells(specs: List[TrialSpec]) -> List[RunProfile]:
        """Profiles are pure functions of their spec, so the per-cell
        canonical runs fan out over the executor; rungs land in the
        shared on-disk store, the one place every trial reads them
        from, whichever process it runs in."""
        if executor is not None and len(specs) > 1:
            return executor.map(
                profile_cell, specs,
                describe=lambda s: f"profile {s.workload}/{s.design}")
        return [profile_cell(spec) for spec in specs]

    if snapshot_rungs:
        log.info("sizing ladders: ~%d rungs per cell", snapshot_rungs)
        probes = profile_cells([
            replace(base_spec(workload, design), snapshot_every=0,
                    snapshot_dir=None)
            for workload, design in cells])
        for (workload, design), probe in zip(cells, probes):
            cell_every[(workload, design)] = max(
                1, len(probe.persist_cycles) // snapshot_rungs)

    def fan_out(specs: List[TrialSpec]) -> List[Dict]:
        if not specs:
            return []
        if executor is not None:
            return executor.map_batched(
                run_trial_batch, specs, key=_batch_key,
                chunk_size=batch, describe=_describe_batch)
        return run_trial_batch(specs)

    log.info("profiling %d cells (%d workloads x %d designs)",
             len(cells), len(workloads), len(designs))
    profiles: Dict[Tuple[str, str], RunProfile] = {}
    for (workload, design), profile in zip(
            cells, profile_cells([base_spec(workload, design)
                                  for workload, design in cells])):
        profiles[(workload, design)] = profile
        bus.emit("cell_profile", workload=workload, design=design,
                 total_cycles=profile.total_cycles)

    # The adaptive planner wants a feedback round; the others spend
    # their whole budget at once.
    rounds = 2 if planner == "adaptive" else 1
    tried: Dict[Tuple[str, str], set] = {cell: set() for cell in cells}
    results: Dict[Tuple[str, str], List[Dict]] = {cell: [] for cell in cells}
    failures: Dict[Tuple[str, str], List[Dict]] = {cell: [] for cell in cells}

    for round_index in range(rounds):
        round_budget = budget // rounds
        if round_index == rounds - 1:
            round_budget = budget - round_budget * (rounds - 1)
        specs: List[TrialSpec] = []
        for workload, design in cells:
            cell = (workload, design)
            rng = _cell_rng(seed, workload, design, round_index)
            cycles = planner_obj.plan(
                profiles[cell], round_budget, rng,
                failures=[f["crash_cycle"] for f in failures[cell]])
            fresh = [c for c in cycles if c not in tried[cell]]
            tried[cell].update(fresh)
            specs.extend(replace(base_spec(workload, design),
                                 crash_cycle=cycle) for cycle in fresh)
        log.info("round %d/%d: %d trials", round_index + 1, rounds,
                 len(specs))
        bus.emit("round_start", round=round_index + 1, rounds=rounds,
                 n_trials=len(specs))
        for spec, outcome in zip(specs, fan_out(specs)):
            cell = (spec.workload, spec.design)
            results[cell].append(outcome)
            bus.emit("trial_finish", workload=spec.workload,
                     design=spec.design, crash_cycle=spec.crash_cycle,
                     consistent=outcome["consistent"],
                     violations=len(outcome["violations"]))
            if not outcome["consistent"]:
                failures[cell].append(outcome)
                for violation in outcome["violations"]:
                    bus.emit("oracle_violation", workload=spec.workload,
                             design=spec.design,
                             crash_cycle=spec.crash_cycle,
                             violation_kind=violation["kind"],
                             cycle=violation.get("cycle",
                                                 spec.crash_cycle))

    # Every round is served: free this process's live runs before
    # shrinking and the crash-states pass build runs of their own.
    for workload, design in cells:
        _evict_resident(base_spec(workload, design))

    cell_reports: List[Dict] = []
    for workload, design in cells:
        cell = (workload, design)
        cell_failures = sorted(failures[cell],
                               key=lambda f: f["crash_cycle"])
        shrink_payload = None
        if shrink and cell_failures:
            shrink_payload = _shrink_cell(
                base_spec(workload, design), cell_failures)
            bus.emit("shrink_finish", workload=workload, design=design,
                     earliest_cycle=cell_failures[0]["crash_cycle"],
                     minimal_cycle=shrink_payload["minimal_cycle"],
                     trials=shrink_payload.get("trials", 0))
        cell_reports.append({
            "workload": workload,
            "design": design,
            "fault": fault,
            "total_cycles": profiles[cell].total_cycles,
            "trials": len(results[cell]),
            "failures": cell_failures,
            "violation_kinds": sorted({
                violation["kind"] for failure in cell_failures
                for violation in failure["violations"]}),
            "shrink": shrink_payload,
        })

    crash_states_payload = None
    if crash_states:
        # Imported here, not at module top: crashstates builds on this
        # module, so the dependency must stay one-way at import time.
        from ..crashstates.checker import (CRASH_STATES_SCHEMA_VERSION,
                                           check_cell)
        cs_cells: List[Dict] = []
        for workload, design in cells:
            cell = (workload, design)
            cycles = sorted(tried[cell])
            rng = random.Random(
                f"{seed}:{workload}:{design}:crashstates")
            if len(cycles) > _CRASH_STATE_MAX_CYCLES:
                cycles = sorted(rng.sample(cycles,
                                           _CRASH_STATE_MAX_CYCLES))
            every = cell_every.get(cell, snapshot_every) or max(
                1, len(profiles[cell].persist_cycles)
                // _CRASH_STATE_RUNGS)
            spec = replace(base_spec(workload, design),
                           snapshot_every=every, snapshot_dir=None)
            log.info("crash-states %s/%s: %d cycles, budget %d",
                     workload, design, len(cycles), image_budget)
            payload = check_cell(spec, cycles, image_budget=image_budget,
                                 shrink=shrink)
            cs_cells.append(payload)
            log.info("crash-states %s/%s: %d images, %d failed",
                     workload, design, payload.get("images_checked", 0),
                     payload.get("images_failed", 0))
        crash_states_payload = {
            "schema_version": CRASH_STATES_SCHEMA_VERSION,
            "image_budget": image_budget,
            "max_cycles_per_cell": _CRASH_STATE_MAX_CYCLES,
            "cells": cs_cells,
        }

    report = CampaignReport(
        params={
            "workloads": list(workloads), "designs": list(designs),
            "planner": planner, "fault": fault, "budget": budget,
            "seed": seed, "n_threads": n_threads,
            "fases_per_thread": fases_per_thread, "log_mode": log_mode,
            "shrink": shrink, "snapshot_every": snapshot_every,
            "snapshot_rungs": snapshot_rungs, "batch": batch,
            "crash_states": crash_states, "image_budget": image_budget,
            "cell_snapshot_every": {
                f"{workload}/{design}": every
                for (workload, design), every in sorted(cell_every.items())},
            "snapshot_dir": snapshot_dir,
        },
        cells=cell_reports,
        elapsed_s=time.perf_counter() - started,
    )
    report.crash_states = crash_states_payload
    bus.emit("campaign_finish", cells=len(cells),
             trials=report.total_trials, failures=report.total_failures,
             consistent=report.consistent, elapsed_s=report.elapsed_s)
    log.info("campaign done: %r", report)
    return report


def _shrink_cell(base: TrialSpec, cell_failures: List[Dict]) -> Dict:
    """Shrink a cell's earliest failing cycle to a minimal reproducer."""
    earliest = cell_failures[0]["crash_cycle"]
    outcomes: Dict[int, Dict] = {earliest: cell_failures[0]}

    def fails(cycle: int) -> bool:
        outcome = run_trial(replace(base, crash_cycle=cycle))
        outcomes[cycle] = outcome
        return not outcome["consistent"]

    shrunk = shrink_crash_cycle(fails, earliest)
    minimal = outcomes.get(shrunk.minimal_cycle)
    if minimal is None:  # minimal == earliest and it was never re-run
        minimal = outcomes[earliest]
    log.info("shrunk %s/%s failure: cycle %d -> %d (%d bisection trials)",
             base.workload, base.design, earliest, shrunk.minimal_cycle,
             shrunk.trials)
    payload = shrunk.to_dict()
    payload["minimal_violations"] = minimal["violations"]
    return payload
