"""Deterministic snapshot/restore of full simulator state.

The subsystem captures the complete dynamic state of a :class:`System`
at *safe points* -- quiesced persist-acceptance boundaries where the
event heap is empty and every core is parked between FASEs -- and can
restore it into a freshly built, identically configured system so that
replaying the tail is bit-identical to the straight-line run.

Three pieces:

* :mod:`repro.snapshot.fingerprint` -- a canonical, stable hash over a
  captured state, the standing determinism check (restore-then-replay
  must land on the same end-of-run fingerprint as straight execution);
* :mod:`repro.snapshot.store` -- a content-addressed on-disk store with
  atomic writes, plus JSON rung indexes;
* :mod:`repro.snapshot.manager` -- the snapshot *ladder*: a capture
  policy (every K persist events at the PM device) that parks cores at
  their FASE-loop boundary, quiesces the machine, captures, and resumes.

Every stateful component implements the :class:`Snapshottable` protocol
(``capture_state() -> dict`` / ``restore_state(state)``); captured
states are plain data (ints, strings, lists, dicts) so they pickle and
hash deterministically.  Configuration-derived values (latencies,
capacities, geometries) are *not* captured -- they come from rebuilding
the system from its spec.
"""

from .fingerprint import canonical_bytes, fingerprint_state
from .manager import (
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotLadder,
    nearest_rung,
    restore_nearest,
)
from .store import SnapshotError, SnapshotStore

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotError",
    "SnapshotLadder",
    "SnapshotStore",
    "Snapshottable",
    "canonical_bytes",
    "fingerprint_state",
    "nearest_rung",
    "restore_nearest",
]


class Snapshottable:
    """Protocol marker: components with capture_state/restore_state.

    Kept as a plain base class (not :mod:`typing` Protocol) so it works
    on 3.7-era syntax and can be used in isinstance checks by tests.
    """

    def capture_state(self) -> dict:  # pragma: no cover - interface
        raise NotImplementedError

    def restore_state(self, state: dict) -> None:  # pragma: no cover
        raise NotImplementedError
