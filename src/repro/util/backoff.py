"""One backoff implementation for every retry loop in the repo.

The campaign runner's trial retries and the online runtime's
task-failure backoff both route through :func:`exponential_delay`,
which keeps the exact ``base * factor ** (attempt - 1)`` floating-point
expression — bit-identical delays matter: the online runtime's backoff
feeds *simulated time*, and a reordered multiply would silently change
every fault-injected trace.

The service retry layer (:class:`repro.service.RetryPolicy`) adds
*decorrelated jitter* on top (:func:`decorrelated_jitter`, after Marc
Brooker's "Exponential Backoff And Jitter"): each sleep is drawn
uniformly from ``[base, previous * 3]`` and capped, which spreads a
thundering herd of retrying clients apart instead of synchronizing them
on the same exponential schedule.

Stdlib-only on purpose — the service client must stay importable
without numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["exponential_delay", "decorrelated_jitter", "Backoff"]


def exponential_delay(
    base: float,
    attempt: int,
    *,
    factor: float = 2.0,
    cap: float | None = None,
) -> float:
    """Deterministic exponential backoff for retry ``attempt`` (1-based).

    Returns ``base * factor ** (attempt - 1)``, clamped to ``cap`` when
    one is given.  ``attempt`` counts *failures so far*: the delay slept
    after the first failure is ``base``, after the second ``base *
    factor``, and so on.  A non-positive ``base`` always yields 0.0 so
    callers can disable sleeping with ``base=0``.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    if base <= 0:
        return 0.0
    delay = base * factor ** (attempt - 1)
    if cap is not None and delay > cap:
        return float(cap)
    return float(delay)


def decorrelated_jitter(
    rng: random.Random,
    previous: float,
    base: float,
    cap: float,
) -> float:
    """One decorrelated-jitter sleep: ``min(cap, U(base, previous*3))``.

    ``previous`` is the last sleep (pass ``base`` — or 0.0 — before the
    first retry).  Unlike "full jitter" the draw depends on the previous
    sleep rather than the attempt number, so two clients that collide
    once diverge immediately instead of colliding again next round.
    """
    if base <= 0:
        return 0.0
    low = base
    high = max(low, previous * 3.0)
    return min(float(cap), rng.uniform(low, high))


@dataclass
class Backoff:
    """A stateful backoff schedule: call :meth:`next_delay` per failure.

    ``jitter="none"`` reproduces the classic deterministic exponential
    ladder; ``jitter="decorrelated"`` draws each sleep from the seeded
    ``random.Random`` stream, so a retry schedule is reproducible from
    its seed but uncorrelated with every other client's.

    >>> b = Backoff(base=0.1, cap=5.0, seed=7)
    >>> delays = [b.next_delay() for _ in range(3)]
    >>> all(0.1 <= d <= 5.0 for d in delays)
    True
    """

    base: float = 0.05
    cap: float = 30.0
    factor: float = 2.0
    jitter: str = "decorrelated"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"base must be >= 0, got {self.base}")
        if self.cap < self.base:
            raise ValueError(
                f"cap must be >= base, got cap={self.cap} base={self.base}"
            )
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.jitter not in ("none", "decorrelated"):
            raise ValueError(
                f"jitter must be 'none' or 'decorrelated', "
                f"got {self.jitter!r}"
            )
        self._rng = random.Random(self.seed)
        self._attempt = 0
        self._previous = self.base

    def next_delay(self) -> float:
        """The sleep to take after the next failure."""
        self._attempt += 1
        if self.jitter == "none":
            delay = exponential_delay(
                self.base, self._attempt, factor=self.factor, cap=self.cap
            )
        else:
            delay = decorrelated_jitter(
                self._rng, self._previous, self.base, self.cap
            )
        self._previous = delay
        return delay

    def reset(self) -> None:
        """Rewind to the pre-first-failure state (success observed)."""
        self._attempt = 0
        self._previous = self.base
        self._rng = random.Random(self.seed)
