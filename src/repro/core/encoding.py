"""Individual encoding for EMTS (paper Section III-A, Figure 2).

EMTS encodes the set of processor allocations of a PTG directly as an
integer vector: individual ``I_j`` of PTG ``G_j`` holds at position ``i``
the number of processors allocated to task ``v_i`` — ``I_j(i) = s(v_i)``.
This module provides the clamp (repair) and random helpers shared by
the mutation operator and the seeding logic; whether a vector is a
feasible allocation is judged by
:func:`repro.mapping.check_allocation`, the library's one allocation
check.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import AllocationError
from ..graph import PTG

__all__ = [
    "clamp_allocations",
    "random_allocations",
    "describe_genome",
]


def clamp_allocations(genome: np.ndarray, P: int) -> np.ndarray:
    """Clamp every allocation into the feasible range ``[1, P]``.

    The Eq. 1 mutation operator may push an allele below 1 or above the
    machine size; clamping is EMTS's repair rule.
    """
    return np.clip(np.asarray(genome, dtype=np.int64), 1, P)


def random_allocations(
    V: int, P: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random allocation vector (used by the seeding ablation)."""
    if V < 1 or P < 1:
        raise AllocationError(f"V and P must be >= 1, got V={V}, P={P}")
    return rng.integers(1, P + 1, size=V, dtype=np.int64)


def describe_genome(ptg: PTG, genome: np.ndarray) -> str:
    """Human-readable rendering of an encoded individual (Figure 2 style).

    >>> from repro.graph import chain
    >>> import numpy as np
    >>> print(describe_genome(chain([1.0, 1.0]), np.array([3, 1])))
    position | task | allocation
           0 | t0   | 3
           1 | t1   | 1
    """
    genome = np.asarray(genome)
    name_w = max(4, max(len(t.name) for t in ptg.tasks))
    lines = [f"position | {'task'.ljust(name_w)} | allocation"]
    for i, t in enumerate(ptg.tasks):
        lines.append(
            f"{i:>8} | {t.name.ljust(name_w)} | {int(genome[i])}"
        )
    return "\n".join(lines)
