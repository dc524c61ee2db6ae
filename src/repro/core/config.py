"""EMTS configuration and the paper's EMTS5 / EMTS10 presets
(Sections III and V).

Paper parameter values:

=====================  =======  ==========================================
parameter              value    meaning
=====================  =======  ==========================================
``delta``              0.9      Δ-criticality threshold of the seed
``f_m``                0.33     initial fraction of mutated allocations
``sigma``              5        std-dev of both mutation half-normals
``a``                  0.2      probability that an allocation *shrinks*
(mu, lambda), U        (5+25),5   EMTS5 — the "quick" configuration
(mu, lambda), U        (10+100),10  EMTS10 — the "thorough" configuration
=====================  =======  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..exceptions import ConfigurationError

__all__ = ["EMTSConfig", "emts5_config", "emts10_config"]


@dataclass(frozen=True)
class EMTSConfig:
    """Complete parameterization of one EMTS run.

    Attributes
    ----------
    mu, lam:
        Parent and offspring counts of the (mu + lambda) strategy.
    generations:
        The horizon ``U``; also drives the mutation-count annealing
        ``m = (1 - u/U) * f_m * V``.
    fm:
        Fraction of alleles mutated in the first generation.
    sigma_stretch, sigma_shrink:
        Standard deviations sigma_1 / sigma_2 of the mutation magnitudes
        (paper: both 5).
    shrink_probability:
        The Bernoulli parameter ``a``: probability that a mutated
        allocation loses processors (paper: 0.2).
    delta:
        Threshold of the Δ-critical seeding heuristic (paper: 0.9).
    seed_heuristics:
        Names of the allocators whose results seed the population, from
        {"mcpa", "hcpa", "delta-critical", "serial", "cpa", "mcpa2"}.
    selection:
        "plus" (paper) or "comma" (ablation).
    verify:
        Online differential verification of fitness values: ``"off"``
        (default), ``"sample"`` (NaN scan every batch plus one full
        differential replay per :data:`repro.verify.evaluator
        .DEFAULT_SAMPLE_INTERVAL` genomes) or ``"full"`` (every finite
        value replayed through every scheduling engine).
    islands:
        False (default) runs the classic panmictic (mu + lambda)
        engine; True runs the island model (:mod:`repro.core.islands`):
        ``mu`` single-parent islands with ring migration inside the
        same generation loop, one batch-kernel call per generation.
        Requires plus selection and ``lam >= mu``.
    migration_interval:
        Generations between ring migrations in island mode (>= 1;
        ignored when ``islands`` is False).
    """

    mu: int = 5
    lam: int = 25
    generations: int = 5
    fm: float = 0.33
    sigma_stretch: float = 5.0
    sigma_shrink: float = 5.0
    shrink_probability: float = 0.2
    delta: float = 0.9
    seed_heuristics: tuple[str, ...] = (
        "mcpa",
        "hcpa",
        "delta-critical",
    )
    selection: str = "plus"
    verify: str = "off"
    islands: bool = False
    migration_interval: int = 1
    name: str = "emts"

    def __post_init__(self) -> None:
        if self.mu < 1:
            raise ConfigurationError(f"mu must be >= 1, got {self.mu}")
        if self.lam < 1:
            raise ConfigurationError(f"lambda must be >= 1, got {self.lam}")
        if self.generations < 1:
            raise ConfigurationError(
                f"generations must be >= 1, got {self.generations}"
            )
        if not (0.0 < self.fm <= 1.0):
            raise ConfigurationError(
                f"f_m must lie in (0, 1], got {self.fm}"
            )
        if self.sigma_stretch <= 0 or self.sigma_shrink <= 0:
            raise ConfigurationError("mutation sigmas must be > 0")
        if not (0.0 <= self.shrink_probability <= 1.0):
            raise ConfigurationError(
                "shrink probability must lie in [0, 1], got "
                f"{self.shrink_probability}"
            )
        if not (0.0 <= self.delta <= 1.0):
            raise ConfigurationError(
                f"delta must lie in [0, 1], got {self.delta}"
            )
        if not self.seed_heuristics:
            raise ConfigurationError(
                "at least one seed heuristic is required"
            )
        if self.selection not in ("plus", "comma"):
            raise ConfigurationError(
                f"selection must be 'plus' or 'comma', got "
                f"{self.selection!r}"
            )
        if self.verify not in ("off", "sample", "full"):
            raise ConfigurationError(
                f"verify must be 'off', 'sample' or 'full', got "
                f"{self.verify!r}"
            )
        if not isinstance(self.islands, bool):
            raise ConfigurationError(
                f"islands must be True or False, got {self.islands!r}"
            )
        if self.migration_interval < 1:
            raise ConfigurationError(
                f"migration_interval must be >= 1, got "
                f"{self.migration_interval}"
            )
        if self.islands:
            if self.selection != "plus":
                raise ConfigurationError(
                    "the island model is elitist per island and "
                    "requires selection='plus'"
                )
            if self.lam < self.mu:
                raise ConfigurationError(
                    f"island mode needs lambda >= mu so every island "
                    f"produces offspring ({self.lam} < {self.mu})"
                )

    def with_updates(self, **changes) -> "EMTSConfig":
        """A modified copy (frozen dataclass helper)."""
        return replace(self, **changes)


def emts5_config() -> EMTSConfig:
    """The paper's EMTS5: a (5 + 25)-EA over 5 generations."""
    return EMTSConfig(mu=5, lam=25, generations=5, name="emts5")


def emts10_config() -> EMTSConfig:
    """The paper's EMTS10: a (10 + 100)-EA over 10 generations."""
    return EMTSConfig(mu=10, lam=100, generations=10, name="emts10")
