"""Homogeneous cluster platform models (paper Section IV-A).

Public API: :class:`Cluster`, the paper's :func:`chti` / :func:`grelon`
presets, and platform-file I/O.
"""

from .cluster import Cluster
from .io import (
    cluster_from_dict,
    cluster_to_dict,
    format_platform_text,
    load_cluster,
    parse_platform_text,
    save_cluster,
)
from .presets import PLATFORMS, by_name, chti, grelon, paper_platforms

__all__ = [
    "Cluster",
    "chti",
    "grelon",
    "paper_platforms",
    "PLATFORMS",
    "by_name",
    "cluster_to_dict",
    "cluster_from_dict",
    "save_cluster",
    "load_cluster",
    "parse_platform_text",
    "format_platform_text",
]
