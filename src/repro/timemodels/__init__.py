"""Execution-time models for moldable parallel tasks (paper Section IV-B).

Public API:

* :class:`ExecutionTimeModel` — the model protocol;
* :class:`TimeTable` — the precomputed ``V x P`` lookup every scheduler
  uses (this is what makes EMTS model-agnostic);
* :class:`AmdahlModel` — the paper's monotone **Model 1**;
* :class:`SyntheticModel` — the paper's non-monotone **Model 2**
  (Algorithm 1);
* :class:`DowneyModel` — Downey's speedup model (mentioned in related
  work);
* :class:`TabulatedModel` — empirical measured-curve model;
* :class:`PdgemmLikeModel` / :func:`pdgemm_time` — the PDGEMM-style model
  behind Figure 1;
* :data:`MODELS` / :func:`model_by_name` — the models the CLI and the
  service accept by name.

Names resolve on first use (:mod:`repro._lazy`), so reading
:data:`MODELS` imports no model, and no numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_namespace

if TYPE_CHECKING:  # pragma: no cover - hints only
    from .base import ExecutionTimeModel

__all__ = [
    "ExecutionTimeModel",
    "TimeTable",
    "AmdahlModel",
    "amdahl_time",
    "SyntheticModel",
    "penalty_factors",
    "DowneyModel",
    "downey_speedup",
    "TabulatedModel",
    "MeasurementSeries",
    "PdgemmLikeModel",
    "pdgemm_time",
    "best_grid",
    "MODELS",
    "model_by_name",
]

#: the model names :func:`model_by_name` accepts, each with the class it
#: builds: the paper's Model 1 and Model 2 under both names, and Downey's
MODELS = {
    "model1": "AmdahlModel",
    "amdahl": "AmdahlModel",
    "model2": "SyntheticModel",
    "synthetic": "SyntheticModel",
    "downey": "DowneyModel",
}


def model_by_name(name: str) -> ExecutionTimeModel:
    """A new model looked up by (case-insensitive) name in :data:`MODELS`."""
    if name.lower() not in MODELS:
        known = ", ".join(sorted(MODELS))
        raise KeyError(f"unknown model {name!r}; known models: {known}")
    return __getattr__(MODELS[name.lower()])()


__getattr__, __dir__ = lazy_namespace(
    globals(),
    {
        ".amdahl": ("AmdahlModel", "amdahl_time"),
        ".base": ("ExecutionTimeModel", "TimeTable"),
        ".downey": ("DowneyModel", "downey_speedup"),
        ".pdgemm": ("PdgemmLikeModel", "best_grid", "pdgemm_time"),
        ".synthetic": ("SyntheticModel", "penalty_factors"),
        ".tabulated": ("MeasurementSeries", "TabulatedModel"),
    },
)
