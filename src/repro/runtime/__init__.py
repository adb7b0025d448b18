"""Failure-atomic runtime: heap, undo logging, FASEs, recovery."""

from .heap import (
    DATA_BASE,
    LOG_BASE,
    LOG_REGION_BYTES,
    AllocationError,
    PersistentHeap,
    is_log_address,
    log_region_base,
    thread_of_log_address,
)
from .crash import build_crash_system
from .recovery import RecoveryReport, run_recovery
from .redo_log import commit_word_addr, recover_redo, recover_redo_all
from .transaction import EAGER, LAZY, FailureAtomicRuntime, ThreadState
from .undo_log import UndoLog, UndoLogLayout, recover, recover_all

__all__ = [
    "AllocationError", "build_crash_system", "DATA_BASE", "EAGER",
    "FailureAtomicRuntime",
    "LAZY", "LOG_BASE", "LOG_REGION_BYTES", "PersistentHeap",
    "RecoveryReport", "ThreadState", "UndoLog", "UndoLogLayout",
    "commit_word_addr", "recover_redo", "recover_redo_all",
    "is_log_address", "log_region_base", "recover", "recover_all",
    "run_recovery", "thread_of_log_address",
]
