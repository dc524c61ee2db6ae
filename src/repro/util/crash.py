"""Named crash points: deterministic process death for recovery tests.

Crash-only software is a hypothesis until you crash it.  The daemon's
durability story (an append-only spool log, checkpoints, restart
recovery) claims that dying at *any* instant loses nothing —
this module makes specific instants addressable so the kill-restart
acceptance suite can detonate each one on purpose.

A production code path marks its dangerous instants with
``crash_point("name")``.  The call is a no-op unless the
``REPRO_CRASH_POINT`` environment variable selects that name, in which
case the process dies *hard* — ``os._exit``: no ``atexit`` handlers, no
flushing, no last-gasp dump, exactly like ``kill -9`` landing on that
line, so a test sees only what a real death leaves behind: the spool
log's intact frames and the published checkpoints.  The variable
accepts an optional 1-based hit count, ``name:N``, to detonate on the
N-th crossing (e.g. ``mid-checkpoint:3`` dies while journalling the
third checkpoint).

Overhead when unarmed: one dict lookup on ``os.environ`` per crossing.
Every call site sits on a cold persistence path (spool writes, drain,
checkpoint journalling), never in the evaluation hot loop.
"""

from __future__ import annotations

import os

__all__ = [
    "CRASH_ENV_VAR",
    "CRASH_EXIT_CODE",
    "KNOWN_CRASH_POINTS",
    "crash_point",
    "reset_crash_counts",
]

CRASH_ENV_VAR = "REPRO_CRASH_POINT"

#: Exit status of a detonated crash point — distinct from every
#: sysexits/service code so a harness can assert the death was the
#: *injected* one and not collateral damage.
CRASH_EXIT_CODE = 66

#: Every crash point wired into the serving path, in request order.
#: (The tuple is documentation plus a test fixture — ``crash_point``
#: itself accepts any name, so adding a point is a one-line change.)
KNOWN_CRASH_POINTS = (
    "pre-spool-write",    # job's frame not yet appended to the log
    "mid-spool-write",    # frame half appended: a torn tail
    "post-spool-write",   # frame durable, caller not yet told
    "post-enqueue",       # job queued + durable, ack not yet sent
    "mid-checkpoint",     # run checkpoint temp written, not published
    "pre-result-persist", # run finished, result not yet durable
    "mid-drain",          # drain started, workers not yet joined
)

# per-process crossing counters, keyed by point name
_hits: dict[str, int] = {}


def crash_point(name: str) -> None:
    """Die with :data:`CRASH_EXIT_CODE` if this point is armed.

    Reads :data:`CRASH_ENV_VAR` on every call (the armed case is a test
    subprocess; the unarmed case must stay cheap and re-readable so one
    long-lived pytest process can arm and disarm freely).
    """
    spec = os.environ.get(CRASH_ENV_VAR)
    if not spec:
        return
    target, _, count = spec.partition(":")
    if target != name:
        return
    _hits[name] = _hits.get(name, 0) + 1
    threshold = int(count) if count else 1
    if _hits[name] >= threshold:
        os._exit(CRASH_EXIT_CODE)


def reset_crash_counts() -> None:
    """Forget crossing counts (in-process tests re-arming points)."""
    _hits.clear()
