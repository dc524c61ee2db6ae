"""EMTS's mutation operator (paper Sections III-C and III-D, Eq. 1).

**How many alleles change** (Section III-C): in generation ``u`` of ``U``,
``m = (1 - u/U) * f_m * V`` allocations of the individual are mutated —
many early (exploration), few late (convergence).  We round and floor at
one so every offspring differs from its parent.

**By how much each changes** (Section III-D, Eq. 1): the step must prefer
small adjustments over large ones (a uniform step distribution oscillates)
and must support both stretching and shrinking, with shrinking *less*
likely.  With a Bernoulli variable ``L`` (``P[L = 0] = a``) and
half-normal magnitudes::

    C = -(|X1| + 1)   if L = 1,  X1 ~ N(0, sigma_1)
    C = +(|X2| + 1)   if L = 0,  X2 ~ N(0, sigma_2)

**Sign convention.**  Read literally, Eq. 1 removes processors with
probability ``1 - a``; but the paper's prose says "``a = 0.2`` means that
the number of processors allocated to a task *decreases* with a
probability of 20 %" and Section III-D requires "the shrinking of
allocations is less likely than the stretching".  The two statements are
inconsistent; we follow the prose (and Figure 3's asymmetry toward
positive adjustments): with probability ``a`` the allocation shrinks by
``floor(|X2|) + 1``, with probability ``1 - a`` it grows by
``floor(|X1|) + 1``.  Magnitudes are floored so that ``|C| >= 1`` always
(a mutation never leaves an allele unchanged) and results are clamped to
``[1, P]``.

**A generation at once.**  :meth:`AllocationMutation.offspring` makes a
whole generation's children from a block of parents.  When the native
library in :mod:`repro.mapping._cscheduler` carries its
``mutation_offspring`` entry point (built against numpy's own sampler
archive), that is one C call: it draws every child's parent index,
positions, shrink flags and both magnitudes from the run's
``np.random.Generator`` through the generator's ``bitgen_t``, with the
samplers numpy itself calls.  Children and the generator's state after
the call are therefore bit-identical to the per-child Python loop, which
stays as the oracle and the fallback (``REPRO_NO_CKERNEL=1``, no numpy
archive, or any ``rng`` that is not a ``Generator``).  On first use the
two paths are compared on one small and one tail-shuffle case of
``Generator.choice``; any difference — a numpy release that changed
those loops — switches the native path off for the process, with a
warning.
"""

from __future__ import annotations

import threading

import numpy as np

from ..ea.operators import MutationOperator, per_child_offspring
from ..exceptions import ConfigurationError
from ..mapping import _cscheduler
from ..obs.log import get_logger
from .encoding import clamp_allocations

__all__ = [
    "mutation_count",
    "sample_adjustments",
    "adjustment_pmf",
    "AllocationMutation",
]

_log = get_logger("core.mutation")


def mutation_count(V: int, u: int, U: int, fm: float) -> int:
    """Number of alleles to mutate in generation ``u`` of ``U``.

    Implements ``m = (1 - u/U) * f_m * V`` with rounding, floored at 1 and
    capped at ``V``.  Note the annealing: at ``u = U`` the formula itself
    yields 0; the floor keeps the final generation productive.
    """
    if V < 1:
        raise ConfigurationError(f"V must be >= 1, got {V}")
    if U < 1:
        raise ConfigurationError(f"U must be >= 1, got {U}")
    if not (0.0 < fm <= 1.0):
        raise ConfigurationError(f"f_m must lie in (0, 1], got {fm}")
    if not (0 <= u <= U):
        raise ConfigurationError(f"generation u={u} outside [0, {U}]")
    m = int(round((1.0 - u / U) * fm * V))
    return max(1, min(m, V))


def sample_adjustments(
    n: int,
    rng: np.random.Generator,
    sigma_stretch: float = 5.0,
    sigma_shrink: float = 5.0,
    shrink_probability: float = 0.2,
) -> np.ndarray:
    """Draw ``n`` processor adjustments ``C`` per Eq. 1 (prose signs).

    Positive entries stretch the allocation, negative entries shrink it;
    every entry has magnitude >= 1.
    """
    shrink = rng.random(n) < shrink_probability
    mag_shrink = np.floor(
        np.abs(rng.normal(0.0, sigma_shrink, size=n))
    ) + 1.0
    mag_stretch = np.floor(
        np.abs(rng.normal(0.0, sigma_stretch, size=n))
    ) + 1.0
    return np.where(shrink, -mag_shrink, mag_stretch).astype(np.int64)


def adjustment_pmf(
    k: np.ndarray,
    sigma_stretch: float = 5.0,
    sigma_shrink: float = 5.0,
    shrink_probability: float = 0.2,
) -> np.ndarray:
    """Analytic probability mass of adjustment ``C = k`` (Figure 3).

    ``|C| = floor(|X|) + 1`` with half-normal ``|X|`` puts on magnitude
    ``j >= 1`` the half-normal mass of the interval ``[j - 1, j)``:
    ``P[|C| = j] = erf(j / (sigma sqrt(2))) - erf((j-1) / (sigma sqrt(2)))``,
    scaled by the branch probability.  ``P[C = 0] = 0`` by construction.
    """
    from scipy.special import erf

    k = np.asarray(k, dtype=np.int64)
    out = np.zeros(k.shape, dtype=np.float64)

    def half_normal_mass(j: np.ndarray, sigma: float) -> np.ndarray:
        lo = (j - 1) / (sigma * np.sqrt(2.0))
        hi = j / (sigma * np.sqrt(2.0))
        return erf(hi) - erf(lo)

    pos = k > 0
    neg = k < 0
    out[pos] = (1.0 - shrink_probability) * half_normal_mass(
        k[pos].astype(np.float64), sigma_stretch
    )
    out[neg] = shrink_probability * half_normal_mass(
        np.abs(k[neg]).astype(np.float64), sigma_shrink
    )
    return out


class AllocationMutation(MutationOperator):
    """EMTS's annealed, Eq. 1-distributed allocation mutation.

    Parameters mirror :class:`repro.core.EMTSConfig`; ``P`` is the machine
    size used for clamping.
    """

    def __init__(
        self,
        P: int,
        fm: float = 0.33,
        sigma_stretch: float = 5.0,
        sigma_shrink: float = 5.0,
        shrink_probability: float = 0.2,
    ) -> None:
        if P < 1:
            raise ConfigurationError(f"P must be >= 1, got {P}")
        if not (0.0 < fm <= 1.0):
            raise ConfigurationError(f"f_m must lie in (0, 1], got {fm}")
        if sigma_stretch <= 0 or sigma_shrink <= 0:
            raise ConfigurationError("sigmas must be > 0")
        if not (0.0 <= shrink_probability <= 1.0):
            raise ConfigurationError(
                "shrink probability must lie in [0, 1]"
            )
        self.P = int(P)
        self.fm = float(fm)
        self.sigma_stretch = float(sigma_stretch)
        self.sigma_shrink = float(sigma_shrink)
        self.shrink_probability = float(shrink_probability)

    def mutate(
        self,
        genome: np.ndarray,
        rng: np.random.Generator,
        generation: int,
        total_generations: int,
    ) -> np.ndarray:
        """One child of ``genome``: a block of one, made as
        :meth:`offspring` makes a generation."""
        genome = np.asarray(genome)
        m = mutation_count(
            genome.shape[0], generation, total_generations, self.fm
        )
        return self._make(genome[np.newaxis], 1, rng, m)[1][0]

    def offspring(
        self,
        parents: np.ndarray,
        count: int,
        rng: np.random.Generator,
        generation: int,
        total_generations: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``count`` children of the ``(n, V)`` parent block.

        Returns ``(parent_index, children)``, bit-identical to the
        per-child loop whichever path makes them (module docstring).  A
        subclass that overrides :meth:`mutate` gets the base class's
        per-child loop over its own ``mutate``.
        """
        parents = np.asarray(parents)
        if parents.ndim != 2 or parents.shape[0] < 1:
            raise ConfigurationError(
                f"parents must be an (n >= 1, V) block, got shape "
                f"{parents.shape}"
            )
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        if type(self).mutate is not AllocationMutation.mutate:
            return super().offspring(
                parents, count, rng, generation, total_generations
            )
        m = mutation_count(
            parents.shape[1], generation, total_generations, self.fm
        )
        return self._make(parents, count, rng, m)

    def _make(
        self,
        parents: np.ndarray,
        count: int,
        rng: np.random.Generator,
        m: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``count`` children with ``m`` mutated alleles each: natively
        when the checked entry point takes the block, else the loop."""
        native = _native_offspring()
        if native is not None:
            made = _offspring_native(native, self, parents, count, rng, m)
            if made is not None:
                return made
        return self._offspring_python(parents, count, rng, m)

    def _offspring_python(
        self,
        parents: np.ndarray,
        count: int,
        rng: np.random.Generator,
        m: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The per-child loop: the native path's oracle and fallback."""
        return per_child_offspring(
            parents, count, rng, lambda genome: self._child(genome, rng, m)
        )

    def _child(
        self, genome: np.ndarray, rng: np.random.Generator, m: int
    ) -> np.ndarray:
        """Eq. 1 on ``m`` distinct positions of one genome, clamped."""
        positions = rng.choice(genome.shape[0], size=m, replace=False)
        adjustments = sample_adjustments(
            m,
            rng,
            sigma_stretch=self.sigma_stretch,
            sigma_shrink=self.sigma_shrink,
            shrink_probability=self.shrink_probability,
        )
        child = np.array(genome, copy=True)
        child[positions] = child[positions] + adjustments
        return clamp_allocations(child, self.P)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AllocationMutation(P={self.P}, fm={self.fm}, "
            f"sigma=({self.sigma_stretch}, {self.sigma_shrink}), "
            f"a={self.shrink_probability})"
        )


def _offspring_native(native, op, parents, count, rng, m):
    """One ``mutation_offspring`` call, or None when it cannot take this
    block (the caller then runs the Python loop)."""
    ffi, make = native
    n, V = parents.shape
    if (
        not isinstance(rng, np.random.Generator)
        or parents.dtype != np.int64
        or not parents.flags.c_contiguous
        or not 1 <= m <= V
        or count < 0
    ):
        return None
    bit_generator = rng.bit_generator
    address = bit_generator.ctypes.bit_generator.value
    index = np.empty(count, dtype=np.int64)
    children = np.empty((count, V), dtype=np.int64)
    # numpy's own methods hold this lock for every draw
    with bit_generator.lock:
        status = make(
            ffi.cast("void *", address),
            n,
            V,
            op.P,
            ffi.from_buffer("int64_t[]", parents),
            count,
            m,
            op.shrink_probability,
            op.sigma_shrink,
            op.sigma_stretch,
            ffi.from_buffer("int64_t[]", index),
            ffi.from_buffer("int64_t[]", children),
        )
    if status < 0:
        # the buffers are allocated before the first draw, so the
        # generator is untouched and the Python loop can take over
        return None
    return index, children


#: ``(ffi, lib.mutation_offspring)`` once checked, None when the Python
#: loop makes every child; _UNCHECKED until the first call
_UNCHECKED = object()
_native = _UNCHECKED
_native_lock = threading.Lock()


def _native_offspring():
    """The checked native entry point, or None (see module docstring)."""
    global _native
    if _native is _UNCHECKED:
        with _native_lock:
            if _native is _UNCHECKED:
                _native = _load_native()
    return _native


def _load_native():
    """``(ffi, lib.mutation_offspring)`` when present and in agreement
    with the Python loop, else None (warned once)."""
    ffi, lib = _cscheduler.load()
    if lib is None:  # REPRO_NO_CKERNEL=1, or load() warned already
        return None
    try:
        native = (ffi, lib.mutation_offspring)
    except AttributeError:
        _log.warning(
            "the native library was built without numpy's sampler "
            "archive (%s); offspring are made by the Python loop",
            _cscheduler._npyrandom_archive(),
        )
        return None
    mismatch = _self_check(native)
    if mismatch is not None:
        _log.warning(
            "native offspring differ from the Python loop on the %s "
            "case under numpy %s; offspring are made by the Python loop",
            mismatch,
            np.__version__,
        )
        return None
    return native


def _self_check(native) -> str | None:
    """Name of the first case on which the native path and the Python
    loop disagree (parent indices, children or generator state)."""
    op = AllocationMutation(P=20)
    # (name, V, parents, children); at generation 0, V = 10050 mutates
    # 3316 > V // 50 alleles: numpy's tail-shuffle branch of choice
    cases = (("Floyd", 23, 5, 16), ("tail-shuffle", 10050, 2, 2))
    for name, V, n, count in cases:
        parents = np.arange(n * V, dtype=np.int64).reshape(n, V) % 24
        m = mutation_count(V, 0, 5, op.fm)
        a = np.random.Generator(np.random.PCG64(2011))
        b = np.random.Generator(np.random.PCG64(2011))
        made = _offspring_native(native, op, parents, count, a, m)
        want = op._offspring_python(parents, count, b, m)
        if (
            made is None
            or not np.array_equal(made[0], want[0])
            or not np.array_equal(made[1], want[1])
            or a.bit_generator.state != b.bit_generator.state
        ):
            return name
    return None
