"""Parallel task graph substrate (paper Section II-A).

Public API:

* :class:`Task`, :class:`PTG` — the immutable data model;
* :class:`PTGBuilder`, :func:`chain`, :func:`fork_join` — construction;
* :func:`bottom_levels`, :func:`top_levels`, :func:`precedence_levels`,
  :func:`critical_path`, :func:`delta_critical_sets` — graph analyses the
  schedulers rely on;
* :func:`csr_adjacency` / :class:`CSRAdjacency` — the DAG flattened to
  CSR index arrays (built once per PTG, shared by the compiled
  scheduling kernel and the native CPA-family loop);
* :func:`validate_ptg` — soft structural checks;
* :func:`save_ptg` / :func:`load_ptg` and corpus variants — JSON I/O.
"""

from .analysis import (
    CSRAdjacency,
    bottom_levels,
    critical_path,
    critical_path_length,
    csr_adjacency,
    delta_critical_sets,
    graph_width,
    level_members,
    precedence_levels,
    top_levels,
)
from .builder import PTGBuilder, chain, fork_join
from .io import (
    load_corpus,
    load_ptg,
    ptg_from_dict,
    ptg_to_dict,
    ptg_to_dot,
    save_corpus,
    save_ptg,
)
from .ptg import PTG, Task
from .validation import (
    ValidationReport,
    is_connected,
    is_layered,
    validate_ptg,
)

__all__ = [
    "Task",
    "PTG",
    "PTGBuilder",
    "chain",
    "fork_join",
    "CSRAdjacency",
    "csr_adjacency",
    "bottom_levels",
    "top_levels",
    "precedence_levels",
    "level_members",
    "critical_path",
    "critical_path_length",
    "delta_critical_sets",
    "graph_width",
    "ValidationReport",
    "validate_ptg",
    "is_layered",
    "is_connected",
    "ptg_to_dict",
    "ptg_from_dict",
    "save_ptg",
    "load_ptg",
    "save_corpus",
    "load_corpus",
    "ptg_to_dot",
]
