"""One retry policy for every fan-out path in the repo.

:class:`RetryPolicy` is the single shared object the worker pool
(:mod:`repro.harness.pool`) consults for every executor.  It is
deliberately *passive*: it answers "should attempt N+1 happen?" and
"how long to wait first?", while the pool owns
the loop, the clock, and the ``task_retry`` event it emits before every
re-run (silent retries are a bug this module exists to end).  Both
answers are pure functions of the attempt number, so retries never
touch RNG state (sweep results must stay bit-identical regardless).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy", "DEFAULT_POLICY"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with doubling backoff.

    ``max_attempts`` counts *executions*, not retries: the default of 2
    means "one retry after the first failure".  ``base_delay_s`` is the
    wait before attempt 2; each further attempt doubles it, capped at
    ``max_delay_s``.
    """

    max_attempts: int = 2
    base_delay_s: float = 0.0
    max_delay_s: float = 30.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")

    def should_retry(self, attempt: int) -> bool:
        """May attempt ``attempt + 1`` happen?  ``attempt`` is the
        1-based count of executions that have already failed."""
        return attempt < self.max_attempts

    def delay_s(self, attempt: int) -> float:
        """Seconds to wait before attempt ``attempt + 1`` (``attempt``
        failures so far)."""
        if attempt < 1 or self.base_delay_s == 0.0:
            return 0.0
        return min(self.base_delay_s * 2 ** (attempt - 1), self.max_delay_s)


#: The policy of every pool and executor unless one is passed: one
#: immediate retry.
DEFAULT_POLICY = RetryPolicy(max_attempts=2, base_delay_s=0.0)
