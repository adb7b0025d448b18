"""The per-core store queue (Table 3: 32 entries).

Stores (and, in the x86 designs, CLWB/SFENCE ops, §8.2.1) occupy an
entry from commit until the operation completes against the memory
system; entries complete independently (the queue is an occupancy
limit, not a serial pipe).  A full queue back-pressures the core -- one
of the main stall sources the paper's comparison turns on -- and fences
wait for :meth:`drain_complete_time`.
"""

from __future__ import annotations

from bisect import bisect_right, insort

from ..config import SystemConfig
from ..sim import Counter
from ..sim.resources import OccupancyQueue


class StoreQueue(OccupancyQueue):
    """Bounded commit-side queue; entries finish at caller-supplied times.

    An :class:`~repro.sim.resources.OccupancyQueue` whose :meth:`push`
    takes a service time.  Its :attr:`stats` are the queue's own
    counters under the store queue's names.
    """

    __slots__ = ("core_id",)

    def __init__(self, config: SystemConfig, core_id: int):
        super().__init__(capacity=config.store_queue_entries,
                         name=f"sq[{core_id}]")
        self.core_id = core_id

    def push(self, now: int, service: int) -> int:
        """Occupy an entry until ``now + service`` (at least one cycle);
        returns the admission time (``> now`` means the queue was full
        and the core stalls).

        ``OccupancyQueue.push(now, now + max(1, service))``, inlined:
        one push per store, CLWB and SFENCE.
        """
        completions = self._completions
        if completions and completions[0] <= now:
            del completions[:bisect_right(completions, now)]
        accept = now
        if len(completions) >= self.capacity:
            accept = completions[len(completions) - self.capacity]
            self.stalled_pushes += 1
            self.total_stall += accept - now
        insort(completions, now + service if service > 1 else now + 1)
        self.pushes += 1
        return accept

    @property
    def stats(self) -> Counter:
        """``pushes``; once the queue has been full, ``full_stalls``
        and ``full_stall_cycles`` too."""
        stats = Counter()
        if self.pushes:
            stats["pushes"] = self.pushes
        if self.stalled_pushes:
            stats["full_stalls"] = self.stalled_pushes
            stats["full_stall_cycles"] = self.total_stall
        return stats

    def capture_state(self) -> dict:
        return {"queue": super().capture_state(),
                "stats": self.stats.capture_state()}

    def restore_state(self, state: dict) -> None:
        super().restore_state(state["queue"])
