"""Workload generators — the paper's application PTGs (Section IV-C).

Public API:

* :func:`generate_fft` — FFT PTGs (sizes 2/4/8/16 → 5/15/39/95 tasks);
* :func:`generate_strassen` — Strassen matrix-multiplication PTGs;
* :func:`generate_daggen`, :class:`DaggenParams` — DAGGEN-style random
  layered/irregular PTGs;
* :mod:`~repro.workloads.complexities` — the a*d / a*d*log d / d^1.5 task
  cost patterns;
* :func:`paper_corpus` and per-class corpus builders — the full 932-PTG
  evaluation set.
"""

from .._lazy import lazy_namespace

__all__ = [
    "ComplexityPattern",
    "TaskSpec",
    "flop_count",
    "sample_task_spec",
    "sample_task_specs",
    "MAX_DATA_SIZE",
    "MIN_DATA_SIZE",
    "ALPHA_MAX",
    "A_MIN",
    "A_MAX",
    "FFT_LEVELS",
    "fft_task_count",
    "generate_fft",
    "generate_strassen",
    "strassen_task_count",
    "DaggenParams",
    "generate_daggen",
    "generate_montage",
    "generate_pipeline_ensemble",
    "Corpus",
    "paper_corpus",
    "fft_corpus",
    "strassen_corpus",
    "layered_corpus",
    "irregular_corpus",
]

__getattr__, __dir__ = lazy_namespace(
    globals(),
    {
        ".complexities": (
            "ALPHA_MAX",
            "A_MAX",
            "A_MIN",
            "MAX_DATA_SIZE",
            "MIN_DATA_SIZE",
            "ComplexityPattern",
            "TaskSpec",
            "flop_count",
            "sample_task_spec",
            "sample_task_specs",
        ),
        ".corpus": (
            "Corpus",
            "fft_corpus",
            "irregular_corpus",
            "layered_corpus",
            "paper_corpus",
            "strassen_corpus",
        ),
        ".daggen": ("DaggenParams", "generate_daggen"),
        ".fft": ("FFT_LEVELS", "fft_task_count", "generate_fft"),
        ".strassen": ("generate_strassen", "strassen_task_count"),
        ".workflows": ("generate_montage", "generate_pipeline_ensemble"),
    },
)
