"""Per-thread undo log: layout, write protocol, and recovery scan.

The log uses *epoch-stamped, self-validating entries* (the standard
trick -- cf. Mnemosyne's torn-bit logs -- for avoiding an extra ordering
point between log entries and a separate count word):

* the first word of a thread's region is its **epoch**: the number of
  FASEs this thread has committed.  A FASE's entries are stamped with
  the epoch value current when it runs;
* each 16-byte entry is ``[old_value, stamped_target]`` where
  ``stamped_target = epoch << STAMP_SHIFT | target_address``.  The
  stamped word is written *last*, so an entry is valid exactly when its
  stamp matches the region's epoch;
* at commit, after the FASE's data is durable, the epoch is incremented
  -- which atomically invalidates every entry.

Ordering requirements and who provides them:

1. an entry is durable before its data store persists -- the
   per-group ordering point (SFENCE / ofence / persist-path FIFO);
2. the epoch bump is durable only after the FASE's data -- the commit
   ordering point (SFENCE / dfence / spec-barrier).

Nothing orders entries against each other: a non-persisted entry simply
fails its stamp check, and (1) guarantees its data write cannot have
persisted either, so skipping it is sound.

Aborts do **not** bump the epoch: rollback rewrites the old values and
leaves the entries live.  Undo application is idempotent, so a crash
anywhere around an abort/retry still recovers to the pre-FASE state.

Layout inside a thread's log region (see :mod:`repro.runtime.heap`)::

    +0    epoch word
    +64   entry[0]: old value
    +72   entry[0]: stamped target   (written last: the validity marker)
    +80   entry[1]: old value
    ...
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .heap import LOG_REGION_BYTES, log_region_base

ENTRY_STRIDE = 16      # two 8-byte words per entry
ENTRIES_OFFSET = 64    # keep the epoch word in its own cache block
TARGET_OFFSET = 8      # an entry's stamped target follows its old value
STAMP_SHIFT = 40       # target addresses fit comfortably below 2^40
ADDRESS_MASK = (1 << STAMP_SHIFT) - 1


def stamp_target(epoch: int, target: int) -> int:
    """Pack (epoch, target address) into one atomically-written word."""
    if not 0 <= target <= ADDRESS_MASK:
        raise ValueError(f"target address 0x{target:x} out of stamp range")
    if epoch < 0:
        raise ValueError("negative epoch")
    return (epoch << STAMP_SHIFT) | target


def unpack_stamp(word: int) -> Tuple[int, int]:
    """Inverse of :func:`stamp_target`: returns ``(epoch, target)``."""
    return word >> STAMP_SHIFT, word & ADDRESS_MASK


class UndoLogLayout:
    """Address arithmetic for one thread's undo log."""

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.base = log_region_base(thread_id)
        self.max_entries = (LOG_REGION_BYTES - ENTRIES_OFFSET) // ENTRY_STRIDE

    @property
    def epoch_addr(self) -> int:
        return self.base

    def entry_old_addr(self, index: int) -> int:
        self._check(index)
        return self.base + ENTRIES_OFFSET + index * ENTRY_STRIDE

    def entry_target_addr(self, index: int) -> int:
        return self.entry_old_addr(index) + TARGET_OFFSET

    def _check(self, index: int) -> None:
        if not 0 <= index < self.max_entries:
            raise IndexError(f"log entry {index} out of range")


class UndoLog:
    """Runtime-side mirror of one thread's undo log (volatile bookkeeping;
    the durable copy is whatever reached the PM device)."""

    def __init__(self, thread_id: int):
        self.layout = UndoLogLayout(thread_id)
        self._records: List[Tuple[int, int]] = []
        self.appends = 0
        self.truncations = 0

    def open_scope(self) -> None:
        """A new FASE starts: the previous scope must have been closed."""
        self._records.clear()

    def append(self, target: int, old_value: int) -> int:
        """Record one undo pair; returns its entry index."""
        index = len(self._records)
        self.layout._check(index)
        self._records.append((target, old_value))
        self.appends += 1
        return index

    def truncate(self) -> None:
        """FASE committed: drop the records (the epoch-bump machine op is
        the caller's duty)."""
        self._records.clear()
        self.truncations += 1

    @property
    def records(self) -> List[Tuple[int, int]]:
        return list(self._records)

    def rollback_writes(self) -> List[Tuple[int, int]]:
        """(addr, old_value) pairs to re-write, newest first -- the abort
        handler's write list."""
        return list(reversed(self._records))

    def capture_state(self) -> dict:
        return {"records": [list(record) for record in self._records],
                "appends": self.appends,
                "truncations": self.truncations}

    def restore_state(self, state: dict) -> None:
        self._records = [(target, old) for target, old in state["records"]]
        self.appends = state["appends"]
        self.truncations = state["truncations"]


def recover(image: Dict[int, int], thread_id: int) -> List[Tuple[int, int]]:
    """Apply one thread's undo log against a persisted image, in place.

    Returns the (addr, restored_value) pairs applied.  Live entries are
    the contiguous prefix whose stamps match the region's epoch; they are
    applied newest-first so multiple writes to one address inside a FASE
    unwind to the true pre-FASE value.
    """
    layout = UndoLogLayout(thread_id)
    epoch = image.get(layout.epoch_addr, 0)
    if epoch < 0:
        raise ValueError(
            f"corrupt undo-log epoch for thread {thread_id}: {epoch}")
    live: List[Tuple[int, int]] = []
    for index in range(layout.max_entries):
        stamped = image.get(layout.entry_target_addr(index))
        if stamped is None:
            break
        entry_epoch, target = unpack_stamp(stamped)
        if entry_epoch != epoch:
            break
        if target >= layout.base:
            raise ValueError(
                f"undo-log entry {index} of thread {thread_id} targets "
                f"the log region itself (0x{target:x})")
        old = image.get(layout.entry_old_addr(index), 0)
        live.append((target, old))
    applied: List[Tuple[int, int]] = []
    for target, old in reversed(live):
        image[target] = old
        applied.append((target, old))
    return applied


def recover_all(image: Dict[int, int],
                n_threads: int) -> Dict[int, List[Tuple[int, int]]]:
    """Run recovery for every thread; returns per-thread applied lists."""
    return {tid: recover(image, tid) for tid in range(n_threads)}
