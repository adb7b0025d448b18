"""Lightweight statistics containers shared by all simulator components."""

from __future__ import annotations

import math
from typing import Dict, Iterable


class Counter(dict):
    """A named bag of integer counters with dict-like access.

    A ``dict`` subclass (rather than a wrapper) so the per-event hot
    paths pay a single C-level ``get``/``__setitem__`` per bump; missing
    names still read as 0.
    """

    __slots__ = ()

    def add(self, name: str, amount: int = 1) -> None:
        self[name] = self.get(name, 0) + amount

    def __getitem__(self, name: str) -> int:
        return self.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self)

    def merge(self, other: "Counter") -> None:
        for name, value in other.items():
            self[name] = self.get(name, 0) + value

    def capture_state(self) -> Dict[str, int]:
        return dict(self)

    def restore_state(self, state: Dict[str, int]) -> None:
        self.clear()
        self.update(state)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.items()))
        return f"Counter({inner})"


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; the paper reports geomean throughput in Figure 12."""
    values = list(values)
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
