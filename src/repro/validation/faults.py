"""Fault models for crash-consistency campaigns.

A fault model decides *what goes wrong* at a trial's crash cycle; the
planner decides *when*.  Every model funnels through hooks the simulator
already exposes -- config overrides, :meth:`PersistPath.set_core_extra`,
:meth:`InterruptController.raise_misspeculation`, and the persisted
device snapshot -- so the campaign never reaches into component
internals.

Models:

``power-cut``
    The plain §2.1 failure: stop the simulation at the crash cycle and
    keep exactly what ADR preserved.

``virtual-misspec``
    §4.4's virtual power failure: a synthetic misspeculation interrupt
    is raised at the crash cycle (through the OS path, as hardware
    would), the run then continues to completion, and the campaign
    checks the runtime's abort/retry machinery converged to a fully
    consistent image.

``persist-delay``
    Perturb one core's persist-path latency (the §8.4 asymmetric-ring
    hook) and power-cut as usual: recovery must not depend on the
    lucky timing of the unperturbed ring.

``window-expiry``
    Pin the speculation window far below the §8.1 rule so speculation-
    buffer entries expire constantly, exercising the lazy-expiry
    machinery; crash consistency must not lean on entries staying live.

``torn-log``
    The deliberate ordering bug (a *negative control*, excluded from
    :data:`DEFAULT_FAULTS`): drop the newest live undo-log entry from
    the persisted image, simulating a FASE data store that persisted
    before its log entry.  Recovery then cannot roll that store back,
    so any crash cycle with an open FASE must fail validation -- this is
    the fixture the shrinking and reporting machinery is proven on.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..core.events import MisspeculationEvent
from ..runtime.undo_log import UndoLogLayout, unpack_stamp


class FaultModel:
    """Base fault: hooks are no-ops; subclasses override what they need."""

    name = "power-cut"
    #: When True the run continues past the crash cycle to completion
    #: (virtual failures recover in place; real ones stop the machine).
    run_to_completion = False

    def config_overrides(self) -> Dict:
        """Extra ``table3_config`` overrides for systems under this fault."""
        return {}

    def arm(self, system) -> None:
        """Called after build, before the run starts."""

    def at_crash(self, system, crash_cycle: int) -> None:
        """Called when the simulation reaches the crash cycle."""

    def mutate_snapshot(self, snapshot: Dict[int, int],
                        n_threads: int) -> List[str]:
        """Tamper with the persisted image post-crash; returns notes
        describing what was done (empty for honest faults)."""
        return []


class PowerCutFault(FaultModel):
    name = "power-cut"


class VirtualMisspecFault(FaultModel):
    """Raise a synthetic misspeculation interrupt at the crash cycle.

    The event targets the lowest data block of the run's heap -- which
    block is irrelevant to the runtime (§6.2's recovery is conservative:
    every in-FASE thread is flagged regardless of address), but it must
    be a *mapped* address so the OS reverse map relays the interrupt.
    """

    name = "virtual-misspec"
    run_to_completion = True

    def __init__(self, kind: str = "store"):
        if kind not in ("load", "store"):
            raise ValueError(f"unknown misspeculation kind {kind!r}")
        self.kind = kind

    def at_crash(self, system, crash_cycle: int) -> None:
        block = min(system.program.initial_heap) >> 6
        event = MisspeculationEvent(self.kind, block, core_id=0,
                                    time=system.env.now)
        system.interrupts.raise_misspeculation(event, system.env.now)


class PersistDelayFault(FaultModel):
    """Add fixed extra persist-path latency to one core, then power-cut."""

    name = "persist-delay"

    def __init__(self, core_id: int = 0, extra_cycles: int = 200):
        self.core_id = core_id
        self.extra_cycles = extra_cycles

    def arm(self, system) -> None:
        core = min(self.core_id, system.config.n_cores - 1)
        system.persist_path.set_core_extra(core, self.extra_cycles)


class WindowExpiryFault(FaultModel):
    """Shrink the speculation window to barely one ring traversal.

    §8.1's rule gives ``n_cores x 20 ns``; 25 ns keeps the window legal
    (> one idle traversal) while making entries expire almost
    immediately, so the campaign exercises the expiry paths constantly.
    """

    name = "window-expiry"

    def __init__(self, window_ns: float = 25.0):
        self.window_ns = window_ns

    def config_overrides(self) -> Dict:
        return {"spec_window_ns": self.window_ns}


class TornLogFault(FaultModel):
    """Deliberate bug: un-persist the newest live undo-log entry.

    The undo protocol's first ordering requirement is *entry durable
    before its data store persists*; deleting a live entry's stamped
    word from the snapshot is exactly what a broken ordering point would
    leave behind.  Recovery skips the (now invalid) entry, the data
    mutation survives un-rolled-back, and the workload's structural
    check fails -- at every crash cycle where some thread held an open
    log scope, which is what makes the failure shrinkable.
    """

    name = "torn-log"

    def mutate_snapshot(self, snapshot: Dict[int, int],
                        n_threads: int) -> List[str]:
        notes = []
        for thread_id in range(n_threads):
            layout = UndoLogLayout(thread_id)
            epoch = snapshot.get(layout.epoch_addr, 0)
            live = 0
            for index in range(layout.max_entries):
                stamped = snapshot.get(layout.entry_target_addr(index))
                if stamped is None or unpack_stamp(stamped)[0] != epoch:
                    break
                live += 1
            if live:
                address = layout.entry_target_addr(live - 1)
                snapshot.pop(address, None)
                notes.append(
                    f"dropped undo-log entry {live - 1} of thread "
                    f"{thread_id} (stamp word 0x{address:x})")
                break  # one torn entry is enough to break recovery
        return notes


_FAULT_TYPES: Dict[str, Type[FaultModel]] = {
    fault.name: fault
    for fault in (PowerCutFault, VirtualMisspecFault, PersistDelayFault,
                  WindowExpiryFault, TornLogFault)
}

#: The honest fault models a full campaign cycles through by default
#: (``torn-log`` is a negative control and must be asked for by name).
DEFAULT_FAULTS = ("power-cut", "virtual-misspec", "persist-delay",
                  "window-expiry")

FAULT_NAMES = tuple(sorted(_FAULT_TYPES))


def fault_by_name(name: str, **kwargs) -> FaultModel:
    """Factory keyed on the stable fault names (campaign specs carry the
    name, not the object, so trials stay cheap to pickle)."""
    if name not in _FAULT_TYPES:
        raise KeyError(f"unknown fault model {name!r}; "
                       f"choose from {sorted(_FAULT_TYPES)}")
    return _FAULT_TYPES[name](**kwargs)
