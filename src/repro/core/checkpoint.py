"""Versioned run checkpoints for resumable EMTS searches.

EMTS is a long-running (mu + lambda) search — Section V of the paper
reports minutes-scale optimization times on Grelon-size instances — and
a production deployment cannot afford to lose a whole run to a process
crash, an operator interrupt, or a wall-clock deadline.  This module
journals everything the evolutionary loop needs to continue *bit
identically* after a restart:

* the surviving population (genomes, fitness values, provenance),
* the full evolution log (so generation accounting and termination
  criteria see the same history),
* the RNG bit-generator state at the generation boundary (parent
  choice and mutation draws resume mid-stream),
* the heuristic seed makespans and the evaluation-engine counters,
* a fingerprint of the problem (PTG + platform + dense time table) and
  of the result-affecting configuration fields, so a checkpoint can
  never be silently resumed against a different instance.

Checkpoints are single JSON documents written atomically (temp file +
``os.replace``), so a crash mid-write can never corrupt the previous
checkpoint.  All load/validation failures raise
:class:`~repro.exceptions.CheckpointError` with file-path context.

The resumption contract is exact: because fitness evaluation is
deterministic and the mutation/selection stream is a pure function of
the restored RNG state, an interrupted run resumed from its checkpoint
reaches the same final makespan as an uninterrupted run with the same
seed (pinned by ``tests/test_core_checkpoint.py``).
"""

from __future__ import annotations

import copy
import json
import hashlib
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from ..ea import EvolutionLog, GenerationStats, Individual
from ..util.crash import crash_point
from ..exceptions import CheckpointError
from .evaluator import EvaluationStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..graph import PTG
    from ..timemodels import TimeTable
    from .config import EMTSConfig

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "SEMANTIC_CONFIG_DEFAULTS",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "problem_fingerprint",
    "fingerprint_digest",
    "semantic_config",
    "verify_resumable",
]

CHECKPOINT_FORMAT = "repro-emts-checkpoint"
CHECKPOINT_VERSION = 1

#: Configuration fields that change the optimization outcome.  Engine
#: knobs (verification, kernel threads, kernel backend) are deliberately
#: excluded: they never change a result, so a run may be resumed under
#: a different execution configuration.  Checkpoints written while the
#: rejection strategy was a switch carry a ``use_rejection`` key; it
#: never changed a result either, and is ignored.
SEMANTIC_CONFIG_FIELDS = (
    "name",
    "mu",
    "lam",
    "generations",
    "fm",
    "sigma_stretch",
    "sigma_shrink",
    "shrink_probability",
    "delta",
    "seed_heuristics",
    "selection",
    "island_mode",
    "migration_interval",
)

#: Values assumed for semantic fields absent from older checkpoints, so
#: documents written before a field existed stay resumable as long as
#: the run uses the historical behavior.  ``island_mode`` holds the
#: ``islands`` flag; it has always been stored as a bool, including by
#: builds whose ``islands`` was a shard count that never changed a result.
SEMANTIC_CONFIG_DEFAULTS = {
    "island_mode": False,
    "migration_interval": 1,
}


def _jsonable(value: Any) -> Any:
    """Normalize tuples to lists so saved/loaded configs compare equal."""
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def problem_fingerprint(ptg: "PTG", table: "TimeTable") -> dict[str, Any]:
    """Identity of one scheduling problem, safe to compare across runs.

    The digest covers the dense ``(V, P)`` time matrix, which already
    folds together the PTG's task works, the platform size/speed and the
    execution-time model — any change to any of them changes the digest.
    """
    array = np.ascontiguousarray(table.array, dtype=np.float64)
    return {
        "ptg_name": ptg.name,
        "num_tasks": int(ptg.num_tasks),
        "num_edges": int(ptg.num_edges),
        "cluster_name": table.cluster.name,
        "num_processors": int(table.num_processors),
        "table_sha256": hashlib.sha256(array.tobytes()).hexdigest(),
    }


def fingerprint_digest(fingerprint: dict[str, Any]) -> str:
    """Collapse a :func:`problem_fingerprint` (or any JSON-serializable
    identity document) into one stable hex digest.

    The scheduling service keys its warm problem caches and its
    cross-request result memoization on this digest; stability across
    processes is guaranteed by hashing the canonical (sorted-key,
    compact) JSON rendering.
    """
    canonical = json.dumps(
        fingerprint, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def semantic_config(config: "EMTSConfig") -> dict[str, Any]:
    """The :data:`SEMANTIC_CONFIG_FIELDS` of ``config``, JSON-shaped."""
    doc: dict[str, Any] = {}
    for key in SEMANTIC_CONFIG_FIELDS:
        if key == "island_mode":
            doc[key] = config.islands
        elif key == "migration_interval" and not config.islands:
            # migration only exists in island mode; normalize so classic
            # runs with different (unused) intervals stay interchangeable
            doc[key] = SEMANTIC_CONFIG_DEFAULTS[key]
        else:
            doc[key] = _jsonable(getattr(config, key))
    return doc


@dataclass
class Checkpoint:
    """One resumable snapshot of an EMTS run at a generation boundary.

    Attributes
    ----------
    config:
        The result-affecting configuration fields (see
        :data:`SEMANTIC_CONFIG_FIELDS`) of the run that wrote the
        checkpoint.
    problem:
        :func:`problem_fingerprint` of the (PTG, time table) pair.
    generation:
        Index of the last completed generation (0 = only seeding and
        the initial selection have run).
    rng_state:
        ``numpy`` bit-generator state captured *after* the generation's
        draws — restoring it continues the stream exactly.
    population:
        Surviving individuals as plain dictionaries.
    log_rows:
        :meth:`repro.ea.EvolutionLog.to_rows` of the history so far.
    seed_makespans:
        The heuristic baselines recorded at seeding time.
    eval_stats:
        Evaluation-engine counters accumulated before the checkpoint.
    elapsed_seconds:
        Wall-clock already spent on this run across all segments.
    completed:
        True when the run finished its generation horizon (the
        checkpoint is then an archive, not a resume point).
    """

    config: dict[str, Any]
    problem: dict[str, Any]
    generation: int
    rng_state: dict[str, Any]
    population: list[dict[str, Any]]
    log_rows: list[dict[str, Any]]
    seed_makespans: dict[str, float]
    eval_stats: dict[str, Any] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    completed: bool = False
    #: Island-mode only: per-island bit-generator states, index i being
    #: island i's mutation stream.  ``None`` for classic runs (and for
    #: checkpoints written before the island model existed).
    island_rng_states: list[dict[str, Any]] | None = None
    version: int = CHECKPOINT_VERSION

    # -- capture -------------------------------------------------------
    @classmethod
    def capture(
        cls,
        config: "EMTSConfig",
        ptg: "PTG",
        table: "TimeTable",
        generation: int,
        rng: np.random.Generator,
        population: list[Individual],
        log: EvolutionLog,
        seed_makespans: dict[str, float],
        eval_stats: EvaluationStats | None = None,
        elapsed_seconds: float = 0.0,
        completed: bool = False,
        island_rngs: list[np.random.Generator] | None = None,
        *,
        semantic: dict[str, Any] | None = None,
        problem: dict[str, Any] | None = None,
    ) -> "Checkpoint":
        """Snapshot the live state of a run at a generation boundary.

        ``semantic`` and ``problem`` are the run's
        :func:`semantic_config` and :func:`problem_fingerprint`, when
        the caller already holds them: both are fixed for a whole run,
        so a run journaling every generation computes them once.
        """
        return cls(
            config=(
                semantic if semantic is not None else semantic_config(config)
            ),
            problem=(
                problem
                if problem is not None
                else problem_fingerprint(ptg, table)
            ),
            generation=int(generation),
            rng_state=copy.deepcopy(rng.bit_generator.state),
            population=[
                {
                    "genome": [int(x) for x in ind.genome],
                    "fitness": ind.fitness,
                    "origin": ind.origin,
                    "generation": int(ind.generation),
                }
                for ind in population
            ],
            log_rows=log.to_rows(),
            seed_makespans=dict(seed_makespans),
            eval_stats=(
                asdict(eval_stats) if eval_stats is not None else {}
            ),
            elapsed_seconds=float(elapsed_seconds),
            completed=bool(completed),
            island_rng_states=(
                [
                    copy.deepcopy(g.bit_generator.state)
                    for g in island_rngs
                ]
                if island_rngs is not None
                else None
            ),
        )

    # -- restoration ---------------------------------------------------
    def restore_population(self) -> list[Individual]:
        """Rebuild the surviving individuals, fitness included."""
        try:
            return [
                Individual(
                    genome=np.asarray(entry["genome"], dtype=np.int64),
                    fitness=entry["fitness"],
                    origin=str(entry.get("origin", "checkpoint")),
                    generation=int(entry.get("generation", 0)),
                )
                for entry in self.population
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint population is malformed: {exc!r}"
            ) from exc

    def restore_log(self) -> EvolutionLog:
        """Rebuild the evolution log recorded up to the checkpoint."""
        log = EvolutionLog()
        try:
            for row in self.log_rows:
                log.append(
                    GenerationStats(
                        generation=int(row["generation"]),
                        best=float(row["best"]),
                        mean=float(row["mean"]),
                        std=float(row["std"]),
                        worst=float(row["worst"]),
                        evaluations=int(row["evaluations"]),
                        elapsed_seconds=float(row["elapsed_seconds"]),
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint evolution log is malformed: {exc!r}"
            ) from exc
        return log

    def restore_rng(self, rng: np.random.Generator) -> None:
        """Rewind ``rng`` to the checkpointed bit-generator state."""
        try:
            rng.bit_generator.state = copy.deepcopy(self.rng_state)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint RNG state does not fit the generator "
                f"({exc!r}); was the checkpoint written with a "
                f"different bit generator?"
            ) from exc

    def restore_island_rngs(self) -> list[np.random.Generator] | None:
        """Rebuild the per-island mutation streams (island mode only).

        Returns ``None`` for classic checkpoints; raises
        :class:`~repro.exceptions.CheckpointError` when a stored state
        does not fit the default bit generator.
        """
        if self.island_rng_states is None:
            return None
        rngs = []
        for i, state in enumerate(self.island_rng_states):
            gen = np.random.default_rng()
            try:
                gen.bit_generator.state = copy.deepcopy(state)
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"checkpoint island {i} RNG state does not fit "
                    f"the generator ({exc!r})"
                ) from exc
            rngs.append(gen)
        return rngs

    def restore_eval_stats(self) -> EvaluationStats:
        """Evaluation counters accumulated before the checkpoint."""
        known = {
            k: v
            for k, v in self.eval_stats.items()
            if k in EvaluationStats.__dataclass_fields__
        }
        return EvaluationStats(**known)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable document (inverse of :meth:`from_dict`)."""
        doc = {
            "format": CHECKPOINT_FORMAT,
            "version": self.version,
            "config": self.config,
            "problem": self.problem,
            "generation": self.generation,
            "rng_state": self.rng_state,
            "population": self.population,
            "log_rows": self.log_rows,
            "seed_makespans": self.seed_makespans,
            "eval_stats": self.eval_stats,
            "elapsed_seconds": self.elapsed_seconds,
            "completed": self.completed,
        }
        if self.island_rng_states is not None:
            doc["island_rng_states"] = self.island_rng_states
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Checkpoint":
        """Validate and rebuild a checkpoint from its JSON document."""
        if not isinstance(doc, dict):
            raise CheckpointError(
                f"checkpoint document must be an object, got "
                f"{type(doc).__name__}"
            )
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"not an EMTS checkpoint (format={doc.get('format')!r})"
            )
        version = doc.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        try:
            return cls(
                config=dict(doc["config"]),
                problem=dict(doc["problem"]),
                generation=int(doc["generation"]),
                rng_state=dict(doc["rng_state"]),
                population=list(doc["population"]),
                log_rows=list(doc["log_rows"]),
                seed_makespans={
                    str(k): float(v)
                    for k, v in doc["seed_makespans"].items()
                },
                eval_stats=dict(doc.get("eval_stats", {})),
                elapsed_seconds=float(doc.get("elapsed_seconds", 0.0)),
                completed=bool(doc.get("completed", False)),
                island_rng_states=(
                    [dict(s) for s in doc["island_rng_states"]]
                    if doc.get("island_rng_states") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint document is missing or has a malformed "
                f"field: {exc!r}"
            ) from exc


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> Path:
    """Atomically write ``checkpoint`` to ``path`` (JSON).

    The document is first written to a sibling temp file and then
    published with :func:`os.replace`, so readers never observe a
    truncated checkpoint and a crash mid-write leaves any previous
    checkpoint intact.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(
            json.dumps(checkpoint.to_dict()), encoding="utf-8"
        )
        # the new checkpoint exists only as a temp file: dying here
        # must leave the previous checkpoint intact and resumable
        crash_point("mid-checkpoint")
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise CheckpointError(
            f"could not write checkpoint to {path}: {exc}"
        ) from exc
    return path


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and validate a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`~repro.exceptions.CheckpointError` with file-path
    context for missing files, truncated/corrupted JSON, wrong formats,
    and unsupported versions.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(
            f"could not read checkpoint {path}: {exc}"
        ) from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} is corrupted (invalid JSON): {exc}"
        ) from exc
    try:
        return Checkpoint.from_dict(doc)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def verify_resumable(
    checkpoint: Checkpoint,
    config: "EMTSConfig",
    ptg: "PTG",
    table: "TimeTable",
    *,
    problem: dict[str, Any] | None = None,
) -> None:
    """Refuse to resume a checkpoint against a different run.

    Compares the result-affecting configuration fields and the problem
    fingerprint (``problem``, when the caller already computed it);
    any mismatch raises :class:`~repro.exceptions.CheckpointError`
    naming every differing field, so an operator sees at once *why*
    the resume was rejected.
    """
    mismatches: list[str] = []
    current_cfg = semantic_config(config)
    for key in SEMANTIC_CONFIG_FIELDS:
        saved = checkpoint.config.get(
            key, SEMANTIC_CONFIG_DEFAULTS.get(key)
        )
        if saved != current_cfg[key]:
            mismatches.append(
                f"config.{key}: checkpoint={saved!r} "
                f"run={current_cfg[key]!r}"
            )
    current_problem = (
        problem if problem is not None else problem_fingerprint(ptg, table)
    )
    for key, value in current_problem.items():
        saved = checkpoint.problem.get(key)
        if saved != value:
            mismatches.append(
                f"problem.{key}: checkpoint={saved!r} run={value!r}"
            )
    if mismatches:
        raise CheckpointError(
            "checkpoint does not match this run; refusing to resume:\n  "
            + "\n  ".join(mismatches)
        )
    if checkpoint.completed:
        raise CheckpointError(
            "checkpoint marks a completed run (generation "
            f"{checkpoint.generation}); nothing to resume"
        )
