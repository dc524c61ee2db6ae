"""Figure-data generators — one module per paper figure.

* :func:`generate_figure1` — PDGEMM-like non-monotone timing curves;
* :func:`generate_figure2` — the allocation-vector encoding demo;
* :func:`generate_figure3` — mutation-operator distribution (Eq. 1);
* :func:`generate_figure4` — Model 1 relative makespans (EMTS5);
* :func:`generate_figure5` — Model 2 relative makespans (EMTS5/EMTS10);
* :func:`generate_figure6` — MCPA vs EMTS10 Gantt comparison.
"""

from ..._lazy import lazy_namespace

__all__ = [
    "PANEL_ORDER",
    "RelativeMakespanFigure",
    "build_panels",
    "run_relative_makespan_figure",
    "Figure1Data",
    "generate_figure1",
    "Figure2Data",
    "generate_figure2",
    "Figure3Data",
    "generate_figure3",
    "generate_figure4",
    "Figure5Data",
    "generate_figure5",
    "Figure6Data",
    "generate_figure6",
]

__getattr__, __dir__ = lazy_namespace(
    globals(),
    {
        ".comparison": (
            "PANEL_ORDER",
            "RelativeMakespanFigure",
            "build_panels",
            "run_relative_makespan_figure",
        ),
        ".figure1": ("Figure1Data", "generate_figure1"),
        ".figure2": ("Figure2Data", "generate_figure2"),
        ".figure3": ("Figure3Data", "generate_figure3"),
        ".figure4": ("generate_figure4",),
        ".figure5": ("Figure5Data", "generate_figure5"),
        ".figure6": ("Figure6Data", "generate_figure6"),
    },
)
