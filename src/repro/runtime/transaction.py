"""The failure-atomic runtime (§6.1.2).

Tracks per-thread FASE state, owns the undo logs, and implements the
misspeculation-recovery contract the paper requires of the runtime:

* an **abort handler** that erases intermediate data and restarts the
  interrupted FASE (the core replays the lowered ops; this class hands
  it the undo-write list);
* registration with the OS interrupt layer to receive misspeculation
  signals;
* a **misspeculation handler** that sets the per-thread misspeculation
  flags of every thread currently inside a FASE (§6.2.1) -- the hardware
  cannot attribute blame, so recovery is conservative;
* **lazy** recovery checks the flag at the FASE commit point; **eager**
  recovery broadcasts so threads abort at their next instruction
  boundary (§6.2.2).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.events import MisspeculationEvent
from ..sim import Counter
from .undo_log import UndoLog

LAZY = "lazy"
EAGER = "eager"


class ThreadState:
    """Runtime bookkeeping for one thread."""

    __slots__ = ("thread_id", "in_fase", "fase_id", "misspec_flag",
                 "undo", "commits", "aborts")

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.in_fase = False
        self.fase_id: Optional[int] = None
        self.misspec_flag = False
        self.undo = UndoLog(thread_id)
        self.commits = 0
        self.aborts = 0


class FailureAtomicRuntime:
    """Undo-logging failure-atomic runtime with misspeculation recovery."""

    def __init__(self, n_threads: int, recovery_mode: str = LAZY):
        if recovery_mode not in (LAZY, EAGER):
            raise ValueError(f"unknown recovery mode {recovery_mode!r}")
        self.recovery_mode = recovery_mode
        self.threads: List[ThreadState] = [
            ThreadState(tid) for tid in range(n_threads)]
        self.stats = Counter()
        # (thread_id, fase_id, commit_time): analysis + crash oracles.
        self.commit_log: List[Tuple[int, int, int]] = []
        self.misspec_events: List[MisspeculationEvent] = []

    # -------------------------------------------------------- FASE control

    def fase_begin(self, thread_id: int, fase_id: int, now: int) -> None:
        state = self.threads[thread_id]
        if state.in_fase:
            raise RuntimeError(
                f"thread {thread_id} began FASE {fase_id} while FASE "
                f"{state.fase_id} is open")
        state.in_fase = True
        state.fase_id = fase_id
        # §6.2.1: a thread clears its own flag when it begins a new FASE.
        state.misspec_flag = False
        state.undo.open_scope()
        self.stats["fases_started"] += 1

    def log_write(self, thread_id: int, target: int, old_value: int) -> int:
        """Record an undo pair; returns the log entry index whose machine
        stores the compiler addressed via :class:`UndoLogLayout`."""
        state = self.threads[thread_id]
        if not state.in_fase:
            raise RuntimeError(
                f"thread {thread_id} logged a write outside any FASE")
        return state.undo.append(target, old_value)

    def must_abort(self, thread_id: int, at_boundary: bool) -> bool:
        """Should this thread abort now?

        ``at_boundary`` is True at the FASE commit point (lazy recovery's
        only check site); eager recovery also aborts mid-FASE.
        """
        state = self.threads[thread_id]
        if not (state.in_fase and state.misspec_flag):
            return False
        return at_boundary or self.recovery_mode == EAGER

    def fase_commit(self, thread_id: int, now: int) -> None:
        state = self.threads[thread_id]
        if not state.in_fase:
            raise RuntimeError(f"thread {thread_id} committed outside a FASE")
        state.undo.truncate()
        state.in_fase = False
        state.commits += 1
        self.commit_log.append((thread_id, state.fase_id, now))
        state.fase_id = None
        self.stats["commits"] += 1

    def fase_abort(self, thread_id: int, now: int) -> List[Tuple[int, int]]:
        """Abort handler: returns the (addr, old_value) rollback writes,
        newest first.  The core replays them through the store path and
        then restarts the FASE from the beginning."""
        state = self.threads[thread_id]
        if not state.in_fase:
            raise RuntimeError(f"thread {thread_id} aborted outside a FASE")
        writes = state.undo.rollback_writes()
        state.undo.open_scope()
        state.in_fase = False
        state.aborts += 1
        state.fase_id = None
        self.stats.add("aborts")
        return writes

    # ----------------------------------------------------- misspeculation

    def on_misspeculation(self, event: MisspeculationEvent, now: int) -> int:
        """The OS-relayed misspeculation signal (§6.2.1).  Flags every
        thread currently executing a FASE; returns how many were flagged."""
        self.misspec_events.append(event)
        self.stats.add(f"misspec_{event.kind}")
        flagged = 0
        for state in self.threads:
            if state.in_fase and not state.misspec_flag:
                state.misspec_flag = True
                flagged += 1
        self.stats.add("threads_flagged", flagged)
        return flagged

    # ------------------------------------------------------------ queries

    @property
    def total_commits(self) -> int:
        return sum(state.commits for state in self.threads)

    @property
    def total_aborts(self) -> int:
        return sum(state.aborts for state in self.threads)

    # -------------------------------------------------------- snapshotting

    def capture_state(self) -> dict:
        return {"threads": [{"in_fase": s.in_fase, "fase_id": s.fase_id,
                             "misspec_flag": s.misspec_flag,
                             "commits": s.commits, "aborts": s.aborts,
                             "undo": s.undo.capture_state()}
                            for s in self.threads],
                "stats": self.stats.capture_state(),
                "commit_log": [list(entry) for entry in self.commit_log],
                "misspec_events": [
                    {"kind": e.kind, "block": e.block,
                     "core_id": e.core_id, "time": e.time,
                     "spec_id": e.spec_id, "persist_time": e.persist_time}
                    for e in self.misspec_events]}

    def restore_state(self, state: dict) -> None:
        for thread, sub in zip(self.threads, state["threads"]):
            thread.in_fase = sub["in_fase"]
            thread.fase_id = sub["fase_id"]
            thread.misspec_flag = sub["misspec_flag"]
            thread.commits = sub["commits"]
            thread.aborts = sub["aborts"]
            thread.undo.restore_state(sub["undo"])
        self.stats.restore_state(state["stats"])
        self.commit_log = [tuple(entry) for entry in state["commit_log"]]
        self.misspec_events = [
            MisspeculationEvent(kind=e["kind"], block=e["block"],
                                core_id=e["core_id"], time=e["time"],
                                spec_id=e["spec_id"],
                                persist_time=e["persist_time"])
            for e in state["misspec_events"]]
