"""Small dependency-free utilities shared across the repro stack.

Everything here is importable without numpy so the stdlib-only service
client (and the chaos harness that attacks it) can reuse the exact
retry arithmetic the heavyweight components run on.
"""

from .backoff import decorrelated_jitter, exponential_delay
from .crash import (
    CRASH_ENV_VAR,
    CRASH_EXIT_CODE,
    KNOWN_CRASH_POINTS,
    crash_point,
    register_crash_hook,
    reset_crash_counts,
    reset_crash_hooks,
)

__all__ = [
    "decorrelated_jitter",
    "exponential_delay",
    "CRASH_ENV_VAR",
    "CRASH_EXIT_CODE",
    "KNOWN_CRASH_POINTS",
    "crash_point",
    "register_crash_hook",
    "reset_crash_counts",
    "reset_crash_hooks",
]
