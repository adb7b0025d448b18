"""Array Swaps (Table 4): random swaps of array elements [DPO].

A persistent array is partitioned across threads; each FASE swaps two
random elements of the thread's partition under the partition lock.
Swaps permute values, so the crash invariant is exact: after recovery,
each partition must hold the same *multiset* of values it started with
(a torn swap -- one element updated, the other not -- duplicates one
value and loses another, which recovery must have rolled back).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Tuple

from .base import TraceRecorder, Workload


class ArraySwaps(Workload):
    name = "array_swaps"
    description = "Random swaps of array elements"
    default_fases = 60

    def __init__(self, seed: int = 42, elements_per_thread: int = 256):
        super().__init__(seed)
        self.elements_per_thread = elements_per_thread

    def setup(self, n_threads: int) -> None:
        self.partitions: List[int] = []
        # (word addresses, initial values) per partition, computed once:
        # validate_recovered reads every word of every partition on every
        # recovered image.  The values ascend, so they already are the
        # sorted multiset a recovered partition must hold.
        self._partition_words: List[Tuple[List[int], List[int]]] = []
        for tid in range(n_threads):
            base = self.alloc_words(self.elements_per_thread,
                                    label=f"partition{tid}")
            self.partitions.append(base)
            addrs = [self.word(base, index)
                     for index in range(self.elements_per_thread)]
            # Distinct initial values so multiset checks are sharp.
            values = [tid * self.elements_per_thread + index + 1
                      for index in range(self.elements_per_thread)]
            for addr, value in zip(addrs, values):
                self.init_word(addr, value)
            self._partition_words.append((addrs, values))

    def generate_fase(self, recorder: TraceRecorder, thread_id: int) -> str:
        base = self.partitions[thread_id]
        # Both elements live in one cache block: the paper's
        # microbenchmark FASEs update 64 B of data (§8.1).
        block = self.rng.randrange(self.elements_per_thread // 8)
        i = block * 8 + self.rng.randrange(8)
        j = block * 8 + self.rng.randrange(8)
        while j == i:
            j = block * 8 + self.rng.randrange(8)
        recorder.lock(thread_id)
        a = recorder.read(self.word(base, i))
        b = recorder.read(self.word(base, j))
        recorder.compute(8)
        recorder.write(self.word(base, i), b, shared=False)
        recorder.write(self.word(base, j), a, shared=False)
        recorder.unlock(thread_id)
        return f"swap[{i},{j}]"

    def n_locks(self) -> int:
        return self.n_threads

    def think_cycles(self) -> int:
        return 300

    def validate_recovered(self, image: Dict[int, int]) -> List[str]:
        violations = []
        for tid, (addrs, expected) in enumerate(self._partition_words):
            actual = sorted(map(image.get, addrs, repeat(0)))
            if actual != expected:
                missing = set(expected) - set(actual)
                violations.append(
                    f"partition {tid}: multiset changed "
                    f"(missing {sorted(missing)[:4]}...)")
        return violations
