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
        """The recovered image with log-region addresses stripped."""
        # ``addr < LOG_BASE`` is ``not is_log_address(addr)`` inlined:
        # this runs once per persisted word of every judged image, and
        # the call per word dominated recovery-heavy campaigns.
        return {addr: value for addr, value in self.image.items()
                if addr < LOG_BASE}

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
