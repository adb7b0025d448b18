"""Post-crash recovery: scan every thread's undo log in the persisted
image and roll uncommitted FASEs back (§2.1's failure-atomicity
contract, exercised by the crash-injection tests)."""

from __future__ import annotations

from typing import Dict, List, Tuple

from .heap import LOG_BASE
from .undo_log import recover_all


class RecoveryReport:
    """Outcome of one recovery run."""

    def __init__(self, image: Dict[int, int],
                 applied: Dict[int, List[Tuple[int, int]]]):
        self.image = image
        self.applied = applied

    @property
    def rolled_back_threads(self) -> List[int]:
        return [tid for tid, writes in self.applied.items() if writes]

    @property
    def total_undo_writes(self) -> int:
        return sum(len(writes) for writes in self.applied.values())

    def data_image(self) -> Dict[int, int]:
        """A copy of the recovered image with log-region addresses
        stripped, data words kept in their original order.  Judges do
        not need it: a workload's validator reads only its own data
        words, so it is handed ``image`` itself; this copy is for
        callers that compare or print whole data images."""
        # The log words are a handful among thousands of data words, so
        # copying the dict and deleting them beats rebuilding it pair by
        # pair; ``addr >= LOG_BASE`` is ``is_log_address(addr)`` inlined.
        image = dict(self.image)
        for addr in [addr for addr in image if addr >= LOG_BASE]:
            del image[addr]
        return image

    def __repr__(self) -> str:
        return (f"RecoveryReport(rolled_back={self.rolled_back_threads}, "
                f"undo_writes={self.total_undo_writes})")


def run_recovery(persisted_image: Dict[int, int], n_threads: int,
                 log_mode: str = "undo") -> RecoveryReport:
    """The failure-recovery protocol run after (virtual or real) power
    failure: one log scan per thread over a *copy* of the image
    (``log_mode`` must match the lowering that produced the logs)."""
    image = dict(persisted_image)
    if log_mode == "redo":
        from .redo_log import recover_redo_all
        applied = recover_redo_all(image, n_threads)
    elif log_mode == "undo":
        applied = recover_all(image, n_threads)
    else:
        raise ValueError(f"unknown log mode {log_mode!r}")
    return RecoveryReport(image, applied)
