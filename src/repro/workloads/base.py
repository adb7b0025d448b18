"""Workload framework.

Each benchmark of the paper's Table 4 is a :class:`Workload`: a
deterministic generator that builds a real persistent data structure
over the simulated heap and emits one :class:`~repro.isa.Program` whose
FASEs perform the benchmark's operations.  The generator runs the data
structure *functionally* while recording the PM reads/writes each FASE
performs, so traces carry true addresses and values -- which is what
lets the crash-injection tests check real structural invariants after
recovery (:meth:`Workload.validate_recovered`).

The paper's microbenchmarks run 8 threads x 100K FASEs with 64 B of
data per FASE; a pure-Python DES cannot afford 800K FASEs per run, so
``fases_per_thread`` scales the count (throughput is reported per
second, making runs of different lengths comparable).  This substitution
is recorded in DESIGN.md.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..isa import (
    Compute,
    Fase,
    IROp,
    LockAcquire,
    LockRelease,
    PRead,
    Program,
    PWrite,
    ThreadProgram,
)
from ..runtime.heap import PersistentHeap, WORD_BYTES


class TraceRecorder:
    """Collects one FASE's abstract ops while mutating a functional image."""

    def __init__(self, image: Dict[int, int]):
        self.image = image
        self.ops: List[IROp] = []

    def read(self, addr: int) -> int:
        self.ops.append(PRead(addr))
        return self.image.get(addr, 0)

    def write(self, addr: int, value: int, shared: bool = True) -> None:
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"PM values must be non-negative ints: {value}")
        self.ops.append(PWrite(addr, value, shared=shared))
        self.image[addr] = value

    def compute(self, cycles: int) -> None:
        self.ops.append(Compute(cycles))

    def lock(self, lock_id: int) -> None:
        self.ops.append(LockAcquire(lock_id))

    def unlock(self, lock_id: int) -> None:
        self.ops.append(LockRelease(lock_id))


class Workload:
    """Base class for the Table 4 benchmarks."""

    name = "workload"
    description = ""
    uses_locks = True
    default_fases = 60

    def __init__(self, seed: int = 42):
        self.seed = seed
        self.rng = random.Random(seed)
        self.heap = PersistentHeap()
        # The functional image shared by every recorder; after build() it
        # holds the expected no-failure final state.
        self.image: Dict[int, int] = {}

    # ------------------------------------------------------------- builders

    def build(self, n_threads: int = 8,
              fases_per_thread: Optional[int] = None) -> Program:
        """Generate the Program: init phase, then per-thread FASE streams."""
        fases_per_thread = fases_per_thread or self.default_fases
        if n_threads < 1 or fases_per_thread < 1:
            raise ValueError("need at least one thread and one FASE")
        self.n_threads = n_threads
        self.setup(n_threads)
        initial = dict(self.image)
        threads = []
        fase_counter = 0
        for tid in range(n_threads):
            fases = []
            for _ in range(fases_per_thread):
                recorder = TraceRecorder(self.image)
                label = self.generate_fase(recorder, tid)
                fases.append(Fase(fase_counter, recorder.ops,
                                  label=label or ""))
                fase_counter += 1
            threads.append(ThreadProgram(tid, fases,
                                         think_cycles=self.think_cycles()))
        return Program(self.name, threads, n_locks=self.n_locks(),
                       initial_heap=initial)

    # ------------------------------------------------------------ overrides

    def setup(self, n_threads: int) -> None:
        """Allocate and initialise the persistent structures (the
        single-threaded init phase the paper excludes from timing)."""
        raise NotImplementedError

    def generate_fase(self, recorder: TraceRecorder, thread_id: int) -> str:
        """Record one benchmark operation; returns an optional label."""
        raise NotImplementedError

    def n_locks(self) -> int:
        return 0

    def think_cycles(self) -> int:
        """Inter-FASE computation (application think time)."""
        return 40

    def validate_recovered(self, image: Dict[int, int]) -> List[str]:
        """Check structural invariants on a crash-recovered image;
        returns human-readable violations (empty == consistent).

        ``image`` is the full recovered image, undo-log region included,
        and must not be mutated.  Read only this workload's own words:
        they sit in the data heap, far below the log region, so the
        verdict is the same as on
        :meth:`~repro.runtime.RecoveryReport.data_image`."""
        raise NotImplementedError

    # -------------------------------------------------------------- helpers

    def alloc_words(self, n: int, label: str = "") -> int:
        return self.heap.alloc_words(n, label=label)

    def init_word(self, addr: int, value: int) -> None:
        self.image[addr] = value

    def word(self, base: int, index: int) -> int:
        return base + index * WORD_BYTES
