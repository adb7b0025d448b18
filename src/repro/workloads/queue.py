"""Concurrent Queue (Table 4): insert/delete nodes in a queue [DPO].

Each FASE is an enqueue or a dequeue -- two or three PM writes under a
single global lock, i.e. the *short* FASEs for which §8.2.1 reports no
PMEM-Spec win (the end-of-FASE durability barrier dominates).

Trace-coherence substitution (see DESIGN.md): this reproduction replays
fixed traces, so FASE payload values are computed at generation time.
A single shared head/tail counter would make the trace's values depend
on a specific runtime interleaving; instead each thread operates its
own ring while all threads contend on the one global queue lock.  The
contention and FASE shape -- what the timing comparison is sensitive to
-- match the shared-queue benchmark; the data layout is partitioned so
the trace is valid under any lock-acquisition order.

Layout per ring: monotonically increasing ``head``/``tail`` counters and
``capacity`` slots; the element for logical slot ``k`` is ``MAGIC + k``,
so the crash invariant can verify every in-queue slot exactly.
"""

from __future__ import annotations

from itertools import cycle, islice, repeat
from typing import Dict, List

from .base import TraceRecorder, Workload

MAGIC = 1_000_000


class ConcurrentQueue(Workload):
    name = "queue"
    description = "Insert/delete nodes in a queue"
    default_fases = 60

    def __init__(self, seed: int = 42, capacity: int = 1024):
        super().__init__(seed)
        self.capacity = capacity

    def setup(self, n_threads: int) -> None:
        self.head_addrs: List[int] = []
        self.tail_addrs: List[int] = []
        self.slot_bases: List[int] = []
        # Every ring's slot addresses, computed once: validate_recovered
        # reads every in-queue slot of every judged image.
        self._slot_addrs: List[List[int]] = []
        prefill = self.capacity // 2
        for tid in range(n_threads):
            head = self.alloc_words(8, label=f"head{tid}")
            tail = self.alloc_words(8, label=f"tail{tid}")
            slots = self.alloc_words(self.capacity, label=f"slots{tid}")
            self.head_addrs.append(head)
            self.tail_addrs.append(tail)
            self.slot_bases.append(slots)
            self._slot_addrs.append([self.word(slots, k)
                                     for k in range(self.capacity)])
            self.init_word(head, 0)
            self.init_word(tail, prefill)
            for k in range(prefill):
                self.init_word(self.word(slots, k % self.capacity),
                               MAGIC + k)

    def _slot(self, thread_id: int, k: int) -> int:
        return self.word(self.slot_bases[thread_id], k % self.capacity)

    def generate_fase(self, recorder: TraceRecorder, thread_id: int) -> str:
        head_addr = self.head_addrs[thread_id]
        tail_addr = self.tail_addrs[thread_id]
        recorder.lock(0)
        head = recorder.read(head_addr)
        tail = recorder.read(tail_addr)
        recorder.compute(6)
        do_enqueue = self.rng.random() < 0.5
        if (do_enqueue and tail - head < self.capacity) or head >= tail:
            recorder.write(self._slot(thread_id, tail), MAGIC + tail,
                           shared=False)
            recorder.write(tail_addr, tail + 1, shared=False)
            label = "enqueue"
        else:
            value = recorder.read(self._slot(thread_id, head))
            recorder.compute(2)
            recorder.write(self._slot(thread_id, head), 0, shared=False)
            recorder.write(head_addr, head + 1, shared=False)
            label = f"dequeue:{value}"
        recorder.unlock(0)
        return label

    def n_locks(self) -> int:
        return 1

    def think_cycles(self) -> int:
        return 500

    def validate_recovered(self, image: Dict[int, int]) -> List[str]:
        violations = []
        for tid in range(self.n_threads):
            head = image.get(self.head_addrs[tid], 0)
            tail = image.get(self.tail_addrs[tid], 0)
            if head > tail:
                violations.append(f"ring {tid}: head {head} > tail {tail}")
            if tail - head > self.capacity:
                violations.append(f"ring {tid}: over capacity")
            # Logical slot k is physical slot k % capacity: walk the ring
            # from head's slot, wrapping as often as the counters ask.
            addrs = islice(cycle(self._slot_addrs[tid]),
                           head % self.capacity, None)
            values = map(image.get, addrs, repeat(0))
            for k, value in zip(range(head, tail), values):
                if value != MAGIC + k:
                    violations.append(
                        f"ring {tid} slot {k}: expected {MAGIC + k}, "
                        f"found {value}")
        return violations
