"""Set-associative write-back cache with LRU replacement.

Lines carry their block's byte contents as a sparse ``{addr: value}``
map so that flushes and writebacks persist exactly what the cache holds
-- which is what makes stale reads (PMEM-Spec's load misspeculation)
representable: a block fetched from the PM device can disagree with the
architectural image while the new value is still on the persist path.

Coherence state is MESI-lite (I/S/E/M); the hierarchy maintains the
inter-cache protocol, this class only stores per-line state.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from typing import Dict, Iterator, List, Optional

from ..sim import Counter

INVALID = "I"
SHARED = "S"
EXCLUSIVE = "E"
MODIFIED = "M"

_VALID_STATES = (SHARED, EXCLUSIVE, MODIFIED)

_lru_tick = attrgetter("lru_tick")


class CacheLine:
    """One cache line: block tag, MESI state, contents, LRU stamp."""

    __slots__ = ("block", "state", "data", "lru_tick")

    def __init__(self, block: int, state: str, data: Dict[int, int],
                 lru_tick: int):
        self.block = block
        self.state = state
        self.data = data
        self.lru_tick = lru_tick

    @property
    def dirty(self) -> bool:
        return self.state == MODIFIED

    def __repr__(self) -> str:
        return f"CacheLine(block={self.block}, state={self.state})"


class EvictedLine:
    """A victim pushed out by :meth:`Cache.insert`."""

    __slots__ = ("block", "state", "data")

    def __init__(self, line: CacheLine):
        self.block = line.block
        self.state = line.state
        self.data = line.data

    @property
    def dirty(self) -> bool:
        return self.state == MODIFIED


class Cache:
    """An ``n_sets x n_ways`` write-back cache."""

    def __init__(self, name: str, n_sets: int, n_ways: int):
        if n_sets < 1 or n_ways < 1:
            raise ValueError("cache geometry must be positive")
        self.name = name
        self.n_sets = n_sets
        self.n_ways = n_ways
        self._sets: Dict[int, List[CacheLine]] = defaultdict(list)
        self._tick = 0
        self.stats = Counter()

    # A probe creates the set's (empty) list on its first visit: the
    # captured state lists every set in first-probe order, so a probe
    # that skipped it would change snapshot payloads.  ``_sets`` is a
    # ``defaultdict(list)``, so only that first visit makes a list.
    # Ticks and counters are bumped inline.

    def lookup(self, block: int, touch: bool = True) -> Optional[CacheLine]:
        """Find the line holding ``block``; optionally refresh its LRU age."""
        for line in self._sets[block % self.n_sets]:
            if line.block == block:
                if touch:
                    self._tick += 1
                    line.lru_tick = self._tick
                return line
        return None

    def insert(self, block: int, data: Dict[int, int],
               state: str) -> Optional[EvictedLine]:
        """Install ``block``; returns the evicted victim if the set was full.

        Inserting a block that is already present replaces its contents
        and state in place (no eviction).
        """
        if state not in _VALID_STATES:
            raise ValueError(f"cannot insert line in state {state!r}")
        cache_set = self._sets[block % self.n_sets]
        for existing in cache_set:
            if existing.block == block:
                self._tick += 1
                existing.lru_tick = self._tick
                existing.data = data
                existing.state = state
                return None
        stats = self.stats
        victim: Optional[EvictedLine] = None
        if len(cache_set) >= self.n_ways:
            loser = min(cache_set, key=_lru_tick)
            cache_set.remove(loser)
            victim = EvictedLine(loser)
            stats["evictions"] += 1
            if victim.dirty:
                stats["dirty_evictions"] += 1
        self._tick += 1
        cache_set.append(CacheLine(block, state, data, self._tick))
        stats["fills"] += 1
        return victim

    def write(self, block: int, addr: int, value: int) -> None:
        """Write one word into a resident line and mark it MODIFIED."""
        line = self.lookup(block, touch=False)
        if line is None:
            raise KeyError(f"{self.name}: write to non-resident block {block}")
        self.write_line(line, addr, value)

    def write_line(self, line: CacheLine, addr: int, value: int) -> None:
        """:meth:`write` into ``line``, which :meth:`lookup` just returned:
        the same LRU touch, without probing the set again."""
        self._tick += 1
        line.lru_tick = self._tick
        line.data[addr] = value
        line.state = MODIFIED

    def downgrade(self, block: int, state: str) -> Optional[CacheLine]:
        """Change a resident line's state (M->S on sharing, etc.)."""
        line = self.lookup(block, touch=False)
        if line is not None:
            line.state = state
        return line

    def invalidate(self, block: int) -> Optional[EvictedLine]:
        """Drop ``block`` if resident; returns its final contents."""
        cache_set = self._sets[block % self.n_sets]
        for line in cache_set:
            if line.block == block:
                cache_set.remove(line)
                self.stats["invalidations"] += 1
                return EvictedLine(line)
        return None

    def resident_blocks(self) -> Iterator[int]:
        for cache_set in self._sets.values():
            for line in cache_set:
                yield line.block

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets.values())

    def __contains__(self, block: int) -> bool:
        return self.lookup(block, touch=False) is not None

    def capture_state(self) -> dict:
        # Sets as an ordered item list: dict iteration order is
        # insertion order, and replacement decisions walk it, so the
        # restore must rebuild the same order to replay identically.
        return {"sets": [
                    (set_index,
                     [{"block": line.block, "state": line.state,
                       "data": list(line.data.items()),
                       "lru_tick": line.lru_tick}
                      for line in cache_set])
                    for set_index, cache_set in self._sets.items()],
                "tick": self._tick,
                "stats": self.stats.capture_state()}

    def restore_state(self, state: dict) -> None:
        self._sets = defaultdict(list)
        for set_index, lines in state["sets"]:
            self._sets[set_index] = [
                CacheLine(line["block"], line["state"],
                          {addr: value for addr, value in line["data"]},
                          line["lru_tick"])
                for line in lines]
        self._tick = state["tick"]
        self.stats.restore_state(state["stats"])
