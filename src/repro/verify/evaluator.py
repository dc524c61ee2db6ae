"""Online verification of fitness evaluations.

:class:`VerifyingEvaluator` wraps any fitness evaluator (the batch
backend or a chaos wrapper) and differentially verifies the makespans
it returns, behind the same ``verify={off,sample,full}`` knob the CLI
and :class:`~repro.core.config.EMTSConfig` expose:

* ``"off"`` — no wrapper is built at all (zero overhead);
* ``"sample"`` — every batch is scanned for NaN (a NaN is never a
  makespan), and one finite value per ``sample_interval`` submitted
  genomes is replayed through the full differential check.  Cheap
  enough to leave on in CI and in long campaigns;
* ``"full"`` — every finite value of every batch is differentially
  verified.  This is the chaos-suite setting: a corrupted kernel result
  cannot survive a single batch.

Rejected evaluations (``inf`` under ``abort_above``) are skipped — a
rejection is a bound-dependent marker, not a makespan — so verification
never perturbs the rejection strategy's semantics.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError, VerificationError
from ..graph import PTG
from ..timemodels import TimeTable
from .differential import differential_check

__all__ = ["VerifyingEvaluator", "VERIFY_MODES", "DEFAULT_SAMPLE_INTERVAL"]

#: Recognized verification modes, in increasing order of cost.
VERIFY_MODES = ("off", "sample", "full")

#: Default genome budget between sampled differential checks.  One full
#: differential replay (five engines, including the pure-Python
#: reference mapper and the discrete-event simulator) costs a few
#: milliseconds — roughly a hundred compiled fitness calls — so a check
#: every 4096 submissions keeps the overhead of ``verify="sample"``
#: under 5 % on the benchmark workload (measured ~3 % on the 100-task
#: daggen batch of ``benchmarks/test_evaluator_bench.py``).
DEFAULT_SAMPLE_INTERVAL = 4096


class VerifyingEvaluator:
    """Differentially verify the values another evaluator returns.

    Implements the same duck-typed interface as every evaluator wrapper
    (``evaluate``, ``stats``, ``close``), so it stacks on top of a
    backend — or a chaos wrapper — transparently.

    Parameters
    ----------
    inner:
        The evaluator whose results are checked.
    ptg, table:
        The scheduling problem the genomes belong to.
    mode:
        ``"sample"`` or ``"full"`` (building the wrapper at all implies
        verification is on; ``create_evaluator`` handles ``"off"``).
    sample_interval:
        Submitted-genome budget between sampled checks.
    """

    def __init__(
        self,
        inner,
        ptg: PTG,
        table: TimeTable,
        mode: str = "sample",
        sample_interval: int = DEFAULT_SAMPLE_INTERVAL,
    ) -> None:
        if mode not in ("sample", "full"):
            raise ConfigurationError(
                f"VerifyingEvaluator mode must be 'sample' or 'full', "
                f"got {mode!r}"
            )
        if sample_interval < 1:
            raise ConfigurationError(
                f"sample_interval must be >= 1, got {sample_interval}"
            )
        self.inner = inner
        self.ptg = ptg
        self.table = table
        self.mode = mode
        self.sample_interval = int(sample_interval)
        #: Genomes differentially verified so far.
        self.verified = 0
        #: Divergences detected (the raise interrupts the run, so this
        #: is only ever observed > 0 by code that catches the error).
        self.divergences = 0
        #: Wall-clock seconds spent inside differential replays — the
        #: verification overhead a run's phase breakdown reports.
        self.verify_seconds = 0.0
        # sampling counter: the very first batch is always sampled, so
        # a corrupted kernel is caught at run start, not after hours
        self._budget = 0

    # -- evaluator interface -------------------------------------------
    @property
    def stats(self):
        """The wrapped evaluator's counters."""
        return self.inner.stats

    def close(self) -> None:
        """Release the wrapped evaluator's resources."""
        self.inner.close()

    def __enter__(self) -> "VerifyingEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __call__(self, genome: np.ndarray) -> float:
        """Single-genome convenience entry point."""
        return self.evaluate([genome])[0]

    # ------------------------------------------------------------------
    def _verify_one(self, genome: np.ndarray, value: float) -> None:
        t0 = time.perf_counter()
        try:
            differential_check(
                self.ptg, self.table, genome, expected=value
            )
        except VerificationError:
            self.divergences += 1
            raise
        finally:
            self.verify_seconds += time.perf_counter() - t0
        self.verified += 1

    def _post_check(self, genomes, values: list[float]) -> None:
        """NaN scan plus (sampled or full) differential replay.

        ``genomes`` is any sequence of genome rows — a list or a
        stacked ``(B, V)`` block — matching ``values`` positionally.
        """
        # NaN scan in every mode: no engine produces NaN, so one in the
        # result stream is corruption by definition (vectorized — this
        # runs on every batch, so it must cost next to nothing)
        arr = np.asarray(values, dtype=np.float64)
        nan_mask = np.isnan(arr)
        if nan_mask.any():
            self.divergences += 1
            i = int(np.flatnonzero(nan_mask)[0])
            raise VerificationError(
                f"evaluator returned NaN for genome {i} of the "
                f"batch — no scheduling engine produces NaN",
                kind="engine-divergence",
            )
        if self.mode == "full":
            for genome, value in zip(genomes, values):
                if np.isfinite(value):
                    self._verify_one(genome, value)
        else:
            self._budget -= len(values)
            if self._budget <= 0:
                for genome, value in zip(genomes, values):
                    if np.isfinite(value):
                        self._verify_one(genome, value)
                        self._budget = self.sample_interval
                        break

    def evaluate(
        self,
        genomes: Sequence[np.ndarray],
        abort_above: float | None = None,
    ) -> list[float]:
        """List form of :meth:`evaluate_batch`."""
        return self.evaluate_batch(list(genomes), abort_above=abort_above)

    def evaluate_batch(
        self,
        genome_block: np.ndarray,
        abort_above: float | None = None,
    ) -> list[float]:
        """Evaluate through the wrapped backend, then verify.

        Raises :class:`~repro.exceptions.VerificationError` when a
        returned value is NaN, or when a (sampled or full) differential
        replay disagrees with the backend.
        """
        values = self.inner.evaluate_batch(
            genome_block, abort_above=abort_above
        )
        self._post_check(genome_block, values)
        return values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VerifyingEvaluator({self.inner!r}, mode={self.mode!r}, "
            f"verified={self.verified})"
        )
