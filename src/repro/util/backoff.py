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

__all__ = ["exponential_delay", "decorrelated_jitter"]


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
