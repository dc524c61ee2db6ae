"""EMTS — the paper's primary contribution (Section III).

Public API:

* :class:`EMTS`, :func:`emts5`, :func:`emts10` — the algorithm and the
  paper's two presets;
* :class:`EMTSConfig` — full parameterization;
* :class:`EMTSResult` — schedule + seed baselines + evolution log;
* :class:`AllocationMutation`, :func:`mutation_count`,
  :func:`sample_adjustments`, :func:`adjustment_pmf` — the Eq. 1 mutation
  operator (Figure 3);
* :func:`seed_population` — heuristic-seeded initial populations;
* encoding helpers (:func:`clamp_allocations` etc., Figure 2; an
  allocation is checked by :func:`repro.mapping.check_allocation`);
* the fitness-evaluation engine (the batch-kernel backend
  :class:`SerialEvaluator` and :func:`create_evaluator`);
* resumable run checkpoints (:class:`Checkpoint`,
  :func:`save_checkpoint`, :func:`load_checkpoint`,
  :func:`verify_resumable`).
"""

from .checkpoint import (
    Checkpoint,
    fingerprint_digest,
    load_checkpoint,
    problem_fingerprint,
    save_checkpoint,
    verify_resumable,
)
from .config import EMTSConfig, emts5_config, emts10_config
from .emts import EMTS, EMTSResult, emts5, emts10
from .evaluator import (
    EvaluationStats,
    SerialEvaluator,
    create_evaluator,
)
from .encoding import (
    clamp_allocations,
    describe_genome,
    random_allocations,
)
from .mutation import (
    AllocationMutation,
    adjustment_pmf,
    mutation_count,
    sample_adjustments,
)
from .seeding import SEED_REGISTRY, make_allocator, seed_population

__all__ = [
    "EMTS",
    "EMTSResult",
    "emts5",
    "emts10",
    "EMTSConfig",
    "emts5_config",
    "emts10_config",
    "AllocationMutation",
    "mutation_count",
    "sample_adjustments",
    "adjustment_pmf",
    "clamp_allocations",
    "random_allocations",
    "describe_genome",
    "seed_population",
    "make_allocator",
    "SEED_REGISTRY",
    "EvaluationStats",
    "SerialEvaluator",
    "create_evaluator",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "problem_fingerprint",
    "fingerprint_digest",
    "verify_resumable",
]
