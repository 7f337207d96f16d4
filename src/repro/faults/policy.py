"""Retry/backoff/timeout policy and the simulated wall clock.

The controller owns one :class:`SimClock`; every remote call, backoff wait,
and recovery action advances it, so fault-tolerance costs (MTTR, lost work,
restore time) are measured in the same simulated seconds as the rest of the
performance layer.  :class:`RetryPolicy` is deliberately deterministic: the
same seed yields the same backoff schedule, which keeps faulted runs
replayable — a property the tests assert.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from repro.config import bounded, check_bounds
from repro.faults.errors import RetryBudgetExhausted


class SimClock:
    """A monotonically advancing simulated clock (seconds)."""

    def __init__(self, now: float = 0.0) -> None:
        self._now = float(now)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by {seconds}s")
        self._now += seconds
        return self._now

    def advance_to(self, instant: float) -> float:
        """Catch up to ``instant`` (a no-op when already past it): time a
        queued job spent waiting on somebody else's clock."""
        self._now = max(self._now, float(instant))
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.3f})"


@dataclasses.dataclass
class RetryPolicy:
    """How the controller handles transient faults on a remote call.

    Attributes:
        max_retries: Retries after the first failed attempt before the call
            escalates to ``WorkerLostError``.
        backoff_base: Delay (simulated seconds) before the first retry.
        backoff_factor: Multiplier applied per additional retry (exponential
            backoff).
        jitter: Fractional jitter added to each delay, drawn from a
            generator seeded with ``seed`` — deterministic across runs.
        timeout: Per-call ceiling on the simulated clock; a call whose
            (straggler-inflated) duration exceeds it raises
            ``CallTimeoutError``.  ``None`` disables the timeout.
        deadline: Total simulated-seconds budget one call may spend across
            *all* attempts, timeouts, and backoff waits.  Without it a call
            with ``max_retries=3`` and a 2s timeout can burn ~8s+ of clock —
            more than any single ``timeout`` a caller thinks it set.  When
            the budget is gone, retrying raises
            :class:`~repro.faults.errors.RetryBudgetExhausted` instead of
            waiting again.  ``None`` (default) keeps the old unbounded
            behaviour.
        seed: Seed of the jitter stream.
    """

    max_retries: int = bounded(3, ge=0)
    backoff_base: float = bounded(0.05, ge=0)
    backoff_factor: float = bounded(2.0, ge=1.0)
    jitter: float = 0.0
    timeout: Optional[float] = bounded(None, gt=0)
    deadline: Optional[float] = bounded(None, gt=0)
    seed: int = bounded(0, ge=0)

    def __post_init__(self) -> None:
        check_bounds(self)
        self._rng = np.random.default_rng(self.seed)

    def backoff_delay(self, attempt: int, spent: Optional[float] = None) -> float:
        """Delay before retry ``attempt`` (1-based), deterministic under seed.

        With a ``deadline`` configured, pass ``spent`` (simulated seconds this
        call has already consumed) and the delay is clipped to the remaining
        budget; a call whose budget is already gone gets
        :class:`RetryBudgetExhausted` rather than another wait.
        """
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        delay = self.backoff_base * self.backoff_factor ** (attempt - 1)
        if self.jitter:
            delay *= 1.0 + self.jitter * float(self._rng.random())
        if self.deadline is not None and spent is not None:
            remaining = self.deadline - spent
            if remaining <= 0:
                raise RetryBudgetExhausted(
                    f"retry budget exhausted after {spent:.3f}s of a "
                    f"{self.deadline:.3f}s deadline (attempt {attempt})",
                    deadline=self.deadline,
                    spent=spent,
                    attempts=attempt,
                )
            delay = min(delay, remaining)
        return delay

    def schedule(self) -> List[float]:
        """The full backoff schedule a call would see (consumes the jitter stream).

        With a ``deadline``, the schedule is truncated so its cumulative sum
        never exceeds the budget: the last delay is clipped to what remains
        and later retries are dropped entirely.
        """
        delays: List[float] = []
        spent = 0.0
        for i in range(self.max_retries):
            if self.deadline is not None and spent >= self.deadline:
                break
            delay = self.backoff_delay(i + 1, spent=spent if self.deadline else None)
            delays.append(delay)
            spent += delay
        return delays
