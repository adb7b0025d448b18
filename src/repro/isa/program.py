"""Program containers: FASEs, thread programs, whole workload programs.

A workload (``repro.workloads``) produces one :class:`Program`: a set of
per-thread instruction streams expressed in the abstract IR, structured
as a sequence of :class:`Fase` (failure-atomic section) instances with
optional computation between them.  The compiler
(:mod:`repro.compiler.lowering`) turns each FASE into design-specific
machine ops; a core re-executes exactly that lowered list when the FASE
aborts after misspeculation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .instructions import (
    Compute,
    IROp,
    LockAcquire,
    LockRelease,
    PRead,
    PWrite,
    index_by_block,
)


class ProgramError(ValueError):
    """Raised for ill-formed programs (unbalanced locks, bad addresses)."""


class Fase:
    """One failure-atomic section: the unit of abort/re-execution.

    ``ops`` is the abstract IR body.  ``writes`` (derived) lists the
    distinct persistent byte addresses the body stores to, in first-write
    order -- the undo log needs them, and recovery validation diffs them.
    """

    __slots__ = ("fase_id", "ops", "label")

    def __init__(self, fase_id: int, ops: Sequence[IROp], label: str = ""):
        self.fase_id = fase_id
        self.ops = list(ops)
        self.label = label
        self._validate()

    def _validate(self) -> None:
        held: List[int] = []
        for op in self.ops:
            if isinstance(op, LockAcquire):
                if op.lock_id in held:
                    raise ProgramError(
                        f"FASE {self.fase_id}: recursive lock {op.lock_id}")
                held.append(op.lock_id)
            elif isinstance(op, LockRelease):
                if not held or held[-1] != op.lock_id:
                    raise ProgramError(
                        f"FASE {self.fase_id}: unbalanced release of lock "
                        f"{op.lock_id}")
                held.pop()
        if held:
            raise ProgramError(
                f"FASE {self.fase_id}: locks {held} never released")

    @property
    def writes(self) -> List[int]:
        seen = set()
        ordered = []
        for op in self.ops:
            if isinstance(op, PWrite) and op.addr not in seen:
                seen.add(op.addr)
                ordered.append(op.addr)
        return ordered

    @property
    def reads(self) -> List[int]:
        seen = set()
        ordered = []
        for op in self.ops:
            if isinstance(op, PRead) and op.addr not in seen:
                seen.add(op.addr)
                ordered.append(op.addr)
        return ordered

    def final_values(self) -> Dict[int, int]:
        """addr -> last value written by this FASE (commit effect)."""
        values: Dict[int, int] = {}
        for op in self.ops:
            if isinstance(op, PWrite):
                values[op.addr] = op.value
        return values

    def count(self, op_type: type) -> int:
        return sum(1 for op in self.ops if isinstance(op, op_type))

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return (f"Fase(id={self.fase_id}, ops={len(self.ops)}, "
                f"label={self.label!r})")


class ThreadProgram:
    """The work of one simulated thread: FASEs with optional think time."""

    __slots__ = ("thread_id", "fases", "think_cycles")

    def __init__(self, thread_id: int, fases: Sequence[Fase],
                 think_cycles: int = 0):
        if think_cycles < 0:
            raise ProgramError("negative think_cycles")
        self.thread_id = thread_id
        self.fases = list(fases)
        self.think_cycles = think_cycles

    @property
    def total_ops(self) -> int:
        return sum(len(fase) for fase in self.fases)

    def __repr__(self) -> str:
        return (f"ThreadProgram(tid={self.thread_id}, "
                f"fases={len(self.fases)})")


class Program:
    """A complete multi-threaded persistent workload.

    ``initial_heap`` maps persistent addresses to their pre-run values
    (the single-threaded initialisation phase the paper excludes from
    throughput measurement).  ``n_locks`` sizes the lock table.
    """

    def __init__(self, name: str, threads: Sequence[ThreadProgram],
                 n_locks: int = 0,
                 initial_heap: Optional[Dict[int, int]] = None):
        self.name = name
        self.threads = list(threads)
        self.n_locks = n_locks
        self.initial_heap = dict(initial_heap or {})
        self._heap_blocks: Optional[Dict[int, Dict[int, int]]] = None
        self._validate()

    def _validate(self) -> None:
        if not self.threads:
            raise ProgramError("program has no threads")
        tids = [t.thread_id for t in self.threads]
        if sorted(tids) != list(range(len(tids))):
            raise ProgramError(f"thread ids must be 0..n-1, got {tids}")
        max_lock = -1
        for thread in self.threads:
            for fase in thread.fases:
                for op in fase.ops:
                    if isinstance(op, (LockAcquire, LockRelease)):
                        max_lock = max(max_lock, op.lock_id)
        if max_lock >= self.n_locks:
            raise ProgramError(
                f"lock id {max_lock} used but n_locks={self.n_locks}")

    def heap_blocks(self) -> Dict[int, Dict[int, int]]:
        """``initial_heap`` grouped by cache block
        (:func:`~repro.isa.instructions.index_by_block`), built on first
        use and kept as long as the program, like its lowerings.  Every
        PM device built for the program reads the blocks it has not
        written from this one index, and never writes into it."""
        if self._heap_blocks is None:
            self._heap_blocks = index_by_block(self.initial_heap)
        return self._heap_blocks

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    @property
    def total_fases(self) -> int:
        return sum(len(t.fases) for t in self.threads)

    def expected_final_heap(self,
                            fase_order: Iterable[Fase]) -> Dict[int, int]:
        """Fold FASE effects over the initial heap in the given commit
        order; used by functional-correctness checks."""
        heap = dict(self.initial_heap)
        for fase in fase_order:
            heap.update(fase.final_values())
        return heap

    def __repr__(self) -> str:
        return (f"Program({self.name!r}, threads={self.n_threads}, "
                f"fases={self.total_fases})")


def sequential_reference_heap(program: Program) -> Dict[int, int]:
    """Reference final heap if threads ran one after another.

    Only meaningful for workloads whose FASE effects commute across
    threads (each of our microbenchmarks partitions or locks its data);
    crash/recovery tests use it as the no-failure oracle.
    """
    order: List[Fase] = []
    for thread in program.threads:
        order.extend(thread.fases)
    return program.expected_final_heap(order)


def op_histogram(program: Program) -> Dict[str, int]:
    """Count abstract ops by type across the whole program."""
    names = {PRead: "pread", PWrite: "pwrite", Compute: "compute",
             LockAcquire: "lock_acquire", LockRelease: "lock_release"}
    counts = {name: 0 for name in names.values()}
    for thread in program.threads:
        for fase in thread.fases:
            for op in fase.ops:
                counts[names[type(op)]] += 1
    return counts
