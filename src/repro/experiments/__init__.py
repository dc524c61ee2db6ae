"""Experiment harnesses reproducing the paper's evaluation (Section V).

Public API:

* :func:`run_comparison`, :class:`ComparisonResult`, :class:`RunRecord` —
  the generic scheduler-comparison harness;
* :mod:`~repro.experiments.figures` — per-figure data generators;
* :func:`measure_runtimes` — the Section V runtime table (E7);
* :func:`mean_confidence_interval`, :func:`relative_makespans` — the
  statistics of the paper's bar plots;
* :func:`text_table`, :func:`write_csv` — report rendering.
"""

from .._lazy import lazy_namespace

__all__ = [
    "figures",
    "RunRecord",
    "ComparisonResult",
    "run_comparison",
    "Trial",
    "TrialFailure",
    "CampaignResult",
    "run_campaign",
    "campaign_status",
    "comparison_trials",
    "run_comparison_campaign",
    "record_to_dict",
    "record_from_dict",
    "MeanCI",
    "mean_confidence_interval",
    "relative_makespans",
    "text_table",
    "write_csv",
    "format_panel",
    "RuntimeCell",
    "RuntimeReport",
    "measure_runtimes",
    "ScalabilityResult",
    "run_scalability_sweep",
    "ConvergenceResult",
    "run_convergence_study",
    "SensitivityResult",
    "run_sensitivity_study",
    "VariantOutcome",
    "VariantsResult",
    "compare_variants",
    "default_variant_panel",
]

__getattr__, __dir__ = lazy_namespace(
    globals(),
    {
        ".campaign": (
            "CampaignResult",
            "Trial",
            "TrialFailure",
            "campaign_status",
            "run_campaign",
        ),
        ".convergence": ("ConvergenceResult", "run_convergence_study"),
        ".harness": (
            "ComparisonResult",
            "RunRecord",
            "comparison_trials",
            "record_from_dict",
            "record_to_dict",
            "run_comparison",
            "run_comparison_campaign",
        ),
        ".metrics": (
            "MeanCI",
            "mean_confidence_interval",
            "relative_makespans",
        ),
        ".report": ("format_panel", "text_table", "write_csv"),
        ".runtime": ("RuntimeCell", "RuntimeReport", "measure_runtimes"),
        ".scalability": ("ScalabilityResult", "run_scalability_sweep"),
        ".sensitivity": ("SensitivityResult", "run_sensitivity_study"),
        ".variants": (
            "VariantOutcome",
            "VariantsResult",
            "compare_variants",
            "default_variant_panel",
        ),
    },
)
