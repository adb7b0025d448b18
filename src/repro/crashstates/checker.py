"""Image applicator + recovery checker: prove recovery converges from
*every* durable state the design's model allows.

One :func:`check_cell` call runs a cell's laddered execution twice:
once capture-free to completion, to learn the run's length and where
its rungs fall, then once as the canonical run (device history
recording on) that captures, in memory, only the rungs the requested
crash cycles will restore and stops at the last of them.  Then for
each requested crash cycle:

1. **acquire** the machine state at the cycle by restoring the nearest
   rung and replaying the tail (a rung-restore, not a cold boot;
   ``snapshot_every=0`` degrades to the cold path so the speedup is
   measurable),
2. **pin** the model's floor image -- every record applied -- against
   the simulator's own ``persisted_snapshot()``, byte for byte (this is
   the end-to-end check that record grouping and materialisation are
   faithful),
3. **enumerate** the durable-state set (:mod:`.models`) under the
   enumeration budget,
4. **judge** every image offline: apply the fault's snapshot mutation,
   run recovery, and ask the workload's structural validator; the
   persist-order oracle judges the cycle's history once alongside.
   Each distinct image is judged once per cell: later crash cycles
   reuse the verdict of an image an earlier one already judged.

Failures are bisection-shrunk (PR 3 ``shrink.py``) to a minimal
``(crash cycle, image)`` witness, where the image is reported as the
set of *dropped* records -- the compact reproducer.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..obsv.bus import get_bus
from ..runtime.recovery import run_recovery
from ..snapshot import nearest_rung
from ..telemetry import get_logger
from ..validation.campaign import (TrialSpec, _build, _narrate_start,
                                   _oracle_for)
from ..validation.faults import fault_by_name
from ..validation.history import events_to_history, truncate_history
from ..validation.shrink import shrink_crash_cycle
from .models import (DEFAULT_BUDGET, MODEL_FOR_DESIGN, PersistRecord,
                     enumerate_durable_states, materialize_image,
                     order_context_from_history,
                     records_from_device_history)

CRASH_STATES_SCHEMA_VERSION = 1

#: Failing images reported per cycle before eliding (witness stays).
_FAILING_IMAGE_CAP = 3

log = get_logger("crashstates.checker")


def _image_fingerprint(image: Dict[int, int]) -> str:
    blob = ",".join(f"{a:x}:{v:x}" for a, v in sorted(image.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class _Cell:
    """The resident canonical run one cell's image checks restore into.

    The cell knows its crash cycles up front, so it captures only the
    rungs its acquisitions will restore, in two passes over the same
    laddered execution (capturing never changes where cores park):

    1. a capture-free run to completion gives ``total_cycles`` and every
       rung the ladder reaches; each crash cycle names the nearest rung
       at or before it;
    2. a fresh build, recording device history, captures exactly those
       rungs and stops at the last of them.

    Any other cycle (a shrinking probe) restores the nearest *captured*
    rung or cold-boots: a longer tail to replay, the same machine state
    at the cut.

    Every run the cell drives is cut mid-run, so the cell abandons the
    launch it last cut (``_launch``) before each restore and in
    :meth:`close`: reference counting then frees every cut run.
    """

    def __init__(self, spec: TrialSpec, crash_cycles: Sequence[int],
                 restore: bool = True):
        base = replace(spec, crash_cycle=0, snapshot_dir=None)
        self.spec = base
        started = time.perf_counter()
        _workload, system, _fault, _recorder, ladder = _build(base)
        self.total_cycles = system.run().cycles
        # restore=False captures nothing, so every acquire cold-boots in
        # the ladder's timing universe (parking is part of trial timing)
        # -- the apples-to-apples baseline the crashstates bench gates
        # against.
        wanted: Dict[int, int] = {}
        if restore and ladder is not None:
            for crash_cycle in crash_cycles:
                rung = nearest_rung(ladder.reached, crash_cycle)
                if rung is not None:
                    wanted[rung["rung"]] = rung["cycle"]
        self.workload, self.system, _fault, self.recorder, ladder = \
            _build(base, capture=wanted.keys())
        # The device history is the enumerator's input; the flag is not
        # part of captured state, so it survives every restore below.
        self.system.device.record_history = True
        self.initial_image = dict(self.system.device.snapshot())
        # ``capture_state`` returns fresh containers and restore never
        # aliases a payload, so the payloads below are restored as they
        # are, however many crash cycles restore them.
        self.initial_payload = self.system.capture_state()
        # Every acquire restores before it replays, so nothing past the
        # last wanted rung is ever read: stop there.
        self._launch = None
        if wanted:
            self._launch = self.system.launch()
            self.system.advance(until=max(wanted.values()),
                                stop_event=self._launch)
        self.rungs: List[Dict] = ladder.rungs if ladder is not None else []
        self.canonical_s = time.perf_counter() - started
        # The verdict memo: kept record indices -> (violations, the
        # mutated image's fingerprint when they are non-empty).  An
        # index set names one image at every crash cycle because every
        # cycle's record list is a prefix of the longest one seen so
        # far, which ``pin_records`` enforces.
        self.verdicts: Dict[Tuple[int, ...],
                            Tuple[List[str], Optional[str]]] = {}
        self.records: List[PersistRecord] = []

    def pin_records(self, records: List[PersistRecord]) -> None:
        """Check ``records`` against every record list this cell has
        seen: they must agree on their common prefix.

        Device history is appended in time order and a record never
        spans two cycles, so a later horizon's list extends an earlier
        one's.  A disagreement means acquisition stopped replaying the
        canonical history, and the verdict memo would be unsound."""
        known = self.records
        common = min(len(known), len(records))
        if records[:common] != known[:common]:
            first = next(i for i in range(common)
                         if records[i] != known[i])
            raise RuntimeError(
                f"{self.spec.workload}/{self.spec.design}: persist "
                f"record {first} differs between crash cycles "
                f"({records[first]} vs {known[first]})")
        if len(records) > len(known):
            self.records = records

    def acquire(self, crash_cycle: int):
        """Restore the nearest rung and replay to the crash; returns
        ``(fault, restored_from, horizon)`` with the system positioned
        exactly as a campaign trial's cut point.  The start is
        narrated as a ``snapshot_restore`` event (``resident`` or
        ``cold``); the cycle's answer does not depend on it."""
        self.close()
        fault = fault_by_name(self.spec.fault)
        fault.arm(self.system)
        rung = nearest_rung(self.rungs, crash_cycle)
        self.system.restore_state(self.initial_payload if rung is None
                                  else rung["payload"])
        _narrate_start(crash_cycle, "cold" if rung is None else "resident",
                       rung)
        self._launch = done = self.system.launch()
        self.system.advance(until=crash_cycle, stop_event=done)
        if self.system.env.now < crash_cycle:
            self.system.advance(until=crash_cycle)
        fault.at_crash(self.system, crash_cycle)
        return (fault, None if rung is None else rung["cycle"],
                self.system.env.now)

    def close(self) -> None:
        """Abandon the launch the cell last cut, if any."""
        if self._launch is not None:
            self.system.env.abandon(self._launch)
            self._launch = None


def _check_cycle(cell: _Cell, crash_cycle: int, image_budget: int,
                 timings: Dict[str, float]) -> Dict:
    """Acquire, pin, enumerate, and judge one crash cycle."""
    spec = cell.spec
    bus = get_bus()
    t0 = time.perf_counter()
    fault, _, horizon = cell.acquire(crash_cycle)
    snapshot = cell.system.persisted_snapshot()
    history = truncate_history(
        events_to_history(cell.recorder.events()), horizon)
    t1 = time.perf_counter()

    records = records_from_device_history(cell.system.device.history,
                                          horizon=horizon)
    context = order_context_from_history(
        history, horizon,
        window=cell.system.config.speculation_window_cycles)
    states = enumerate_durable_states(
        spec.design, records, horizon, context=context,
        budget=image_budget, seed=spec.seed)
    floor_matches = states.floor_image(cell.initial_image) == snapshot
    t2 = time.perf_counter()

    oracle_violations = [
        v.to_dict() for v in _oracle_for(cell.system).check(history)]
    bus.emit("image_enumerated", workload=spec.workload,
             design=spec.design, crash_cycle=crash_cycle,
             n_images=states.n_states, truncated=states.truncated,
             model=states.model)

    cell.pin_records(records)
    failing: List[Dict] = []
    images_failed = 0
    for state in states.states:
        kept = states.kept_indices(state)
        verdict = cell.verdicts.get(kept)
        source = "memo"
        if verdict is None:
            image = materialize_image(records, kept, cell.initial_image)
            fault.mutate_snapshot(image, spec.n_threads)
            report = run_recovery(image, spec.n_threads,
                                  log_mode=spec.log_mode)
            problems = cell.workload.validate_recovered(report.image)
            verdict = (problems,
                       _image_fingerprint(image) if problems else None)
            cell.verdicts[kept] = verdict
            source = "judged"
        problems, fingerprint = verdict
        bus.emit("image_check", workload=spec.workload,
                 design=spec.design, crash_cycle=crash_cycle,
                 consistent=not problems, n_violations=len(problems),
                 source=source)
        if problems:
            images_failed += 1
            if len(failing) < _FAILING_IMAGE_CAP:
                dropped = sorted(set(states.uncertain) - set(state))
                failing.append({
                    "dropped_records": dropped,
                    "kept_records": len(kept),
                    "image_fingerprint": fingerprint,
                    "violations": problems[:4],
                })
    t3 = time.perf_counter()
    timings["acquire_s"] += t1 - t0
    timings["enumerate_s"] += t2 - t1
    timings["check_s"] += t3 - t2

    consistent = (floor_matches and images_failed == 0
                  and not oracle_violations)
    payload = dict(states.to_dict())
    payload.update({
        "crash_cycle": crash_cycle,
        "horizon": horizon,
        "floor_matches": floor_matches,
        "images_failed": images_failed,
        "failing_images": failing,
        "oracle_violations": oracle_violations,
        "consistent": consistent,
    })
    return payload


def check_cell(spec: TrialSpec, crash_cycles: Sequence[int],
               image_budget: int = DEFAULT_BUDGET,
               shrink: bool = True,
               restore: bool = True) -> Dict:
    """Enumerate and judge every durable state of one campaign cell.

    ``spec.crash_cycle`` is ignored; ``crash_cycles`` drives the loop.
    ``spec.snapshot_every`` sizes the rung ladder; the image checks
    restore from the rungs of it they need, captured in memory.
    ``restore=False`` keeps that ladder's timing universe but captures
    no rungs and cold-boots every acquire -- the apples-to-apples
    baseline the crashstates benchmark gates against (``snapshot_every
    = 0`` also degrades to cold acquires, but in a *different* timing
    universe: parking is part of trial timing, so its record stream is
    not comparable).  The payload is a pure function of ``(spec,
    crash_cycles, image_budget)`` except for its ``timings`` entry:
    ``restore`` changes only the starts, which acquisitions narrate as
    ``snapshot_restore`` events.
    """
    fault_probe = fault_by_name(spec.fault)
    if fault_probe.run_to_completion:
        # A virtual fault leaves the power on and the machine running:
        # there is no cut image, hence no durable-state set to check.
        return {
            "schema_version": CRASH_STATES_SCHEMA_VERSION,
            "workload": spec.workload, "design": spec.design,
            "fault": spec.fault,
            "model": MODEL_FOR_DESIGN.get(spec.design, "strict"),
            "skipped": "fault runs to completion (no power-cut image)",
            "cycles": [], "consistent": True,
        }

    cell = _Cell(spec, crash_cycles, restore=restore)
    timings = {"canonical_s": cell.canonical_s, "acquire_s": 0.0,
               "enumerate_s": 0.0, "check_s": 0.0}
    cycle_payloads: List[Dict] = []
    outcomes: Dict[int, Dict] = {}
    for crash_cycle in sorted(set(crash_cycles)):
        payload = _check_cycle(cell, crash_cycle, image_budget, timings)
        outcomes[crash_cycle] = payload
        cycle_payloads.append(payload)

    failing_cycles = [p["crash_cycle"] for p in cycle_payloads
                      if not p["consistent"]]
    shrink_payload = None
    witness = None
    if failing_cycles and shrink:
        def fails(cycle: int) -> bool:
            if cycle not in outcomes:
                outcomes[cycle] = _check_cycle(cell, cycle, image_budget,
                                               timings)
            return not outcomes[cycle]["consistent"]

        shrunk = shrink_crash_cycle(fails, failing_cycles[0])
        shrink_payload = shrunk.to_dict()
        minimal = outcomes[shrunk.minimal_cycle]
        # The minimal image witness: states are ordered smallest-first,
        # so the first failing image drops the most records.
        image = (minimal["failing_images"][0]
                 if minimal["failing_images"] else None)
        witness = {
            "crash_cycle": shrunk.minimal_cycle,
            "image": image,
            "oracle_violations": minimal["oracle_violations"][:4],
            "floor_matches": minimal["floor_matches"],
        }
    elif failing_cycles:
        minimal = outcomes[failing_cycles[0]]
        witness = {
            "crash_cycle": failing_cycles[0],
            "image": (minimal["failing_images"][0]
                      if minimal["failing_images"] else None),
            "oracle_violations": minimal["oracle_violations"][:4],
            "floor_matches": minimal["floor_matches"],
        }

    cell.close()
    images_enumerated = sum(p["n_states"] for p in cycle_payloads)
    return {
        "schema_version": CRASH_STATES_SCHEMA_VERSION,
        "workload": spec.workload, "design": spec.design,
        "fault": spec.fault,
        "model": MODEL_FOR_DESIGN.get(spec.design, "strict"),
        "seed": spec.seed,
        "image_budget": image_budget,
        "snapshot_every": cell.spec.snapshot_every,
        "total_cycles": cell.total_cycles,
        "cycles_checked": len(cycle_payloads),
        "images_enumerated": images_enumerated,
        "images_checked": images_enumerated,
        "images_failed": sum(p["images_failed"] for p in cycle_payloads),
        "truncated_cycles": sum(1 for p in cycle_payloads
                                if p["truncated"]),
        "floor_mismatches": sum(1 for p in cycle_payloads
                                if not p["floor_matches"]),
        "cycles": cycle_payloads,
        "consistent": not failing_cycles,
        "shrink": shrink_payload,
        "witness": witness,
        "skipped": None,
        "timings": timings,
    }
