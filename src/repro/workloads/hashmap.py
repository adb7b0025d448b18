"""Hashmap (Table 4): read/update values in a hashmap [DPO].

A fixed-size open-addressed table shared by all threads; buckets are
striped across per-stripe locks.  A FASE is either a lookup (read-only)
or an update writing the entry's (value, generation) pair under the
stripe lock -- another *short-FASE* benchmark.

Cross-thread WAW dependencies are real here: two threads updating the
same key serialise on the stripe lock, which is exactly the
happens-before order PMEM-Spec's spec-IDs must carry to the PM
controller (§5.2.2) -- the store-misspeculation machinery is live on
this workload.

Crash invariant: every entry's ``value`` must encode its key
(``value // GEN_SPACE == key``) and its ``gen`` word must equal
``value % GEN_SPACE`` -- a torn update (value new, gen old) that
recovery failed to roll back is caught immediately.  Because updates
hold the stripe lock, the pair is valid under any serialisation order.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List

from .base import TraceRecorder, Workload

GEN_SPACE = 100_000


class Hashmap(Workload):
    name = "hashmap"
    description = "Read/update values in a hashmap"
    default_fases = 60

    def __init__(self, seed: int = 42, n_keys: int = 2048,
                 n_stripes: int = 64, update_fraction: float = 0.5):
        super().__init__(seed)
        self.n_keys = n_keys
        self.n_stripes = n_stripes
        self.update_fraction = update_fraction
        self._generation = 0

    def setup(self, n_threads: int) -> None:
        # Entry i: [value word, gen word]; entries packed two per block.
        self.table = self.alloc_words(self.n_keys * 2, label="table")
        # Computed once: validate_recovered reads every entry of every
        # judged image.
        self._value_addrs = [self._value_addr(key)
                             for key in range(self.n_keys)]
        self._gen_addrs = [self._gen_addr(key) for key in range(self.n_keys)]
        for key in range(self.n_keys):
            self.init_word(self._value_addr(key), key * GEN_SPACE)
            self.init_word(self._gen_addr(key), 0)

    def _value_addr(self, key: int) -> int:
        return self.word(self.table, key * 2)

    def _gen_addr(self, key: int) -> int:
        return self.word(self.table, key * 2 + 1)

    def _stripe(self, key: int) -> int:
        return key % self.n_stripes

    def generate_fase(self, recorder: TraceRecorder, thread_id: int) -> str:
        key = self.rng.randrange(self.n_keys)
        stripe = self._stripe(key)
        if self.rng.random() < self.update_fraction:
            self._generation += 1
            gen = self._generation % GEN_SPACE
            recorder.lock(stripe)
            recorder.read(self._value_addr(key))
            recorder.compute(10)
            recorder.write(self._value_addr(key), key * GEN_SPACE + gen)
            recorder.write(self._gen_addr(key), gen)
            recorder.unlock(stripe)
            return f"update:{key}"
        recorder.lock(stripe)
        recorder.read(self._value_addr(key))
        recorder.read(self._gen_addr(key))
        recorder.compute(6)
        recorder.unlock(stripe)
        return f"lookup:{key}"

    def n_locks(self) -> int:
        return self.n_stripes

    def think_cycles(self) -> int:
        return 400

    def validate_recovered(self, image: Dict[int, int]) -> List[str]:
        violations = []
        values = map(image.get, self._value_addrs, repeat(0))
        gens = map(image.get, self._gen_addrs, repeat(0))
        for key, value, gen in zip(range(self.n_keys), values, gens):
            if value // GEN_SPACE != key:
                violations.append(
                    f"key {key}: value {value} does not encode the key")
            if value % GEN_SPACE != gen:
                violations.append(
                    f"key {key}: torn update (value gen {value % GEN_SPACE}"
                    f" != gen word {gen})")
        return violations
