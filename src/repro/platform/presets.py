"""The Grid'5000 platform models used in the paper (Section IV-A).

* **Chti** (Lille): 20 computational nodes at 4.3 GFLOPS each.
* **Grelon** (Nancy): 120 nodes at 3.1 GFLOPS each.

Peak performances were measured by the paper's authors with HP-LinPACK
using ACML; we reuse the published numbers directly — the paper itself
evaluates on these platform *models*, so nothing is lost by not having
the physical clusters.
"""

from __future__ import annotations

from .cluster import Cluster

__all__ = ["chti", "grelon", "paper_platforms", "PLATFORMS", "by_name"]


def chti() -> Cluster:
    """The smaller cluster: 20 nodes at 4.3 GFLOPS (Lille)."""
    return Cluster(name="chti", num_processors=20, speed_gflops=4.3)


def grelon() -> Cluster:
    """The larger cluster: 120 nodes at 3.1 GFLOPS (Nancy)."""
    return Cluster(name="grelon", num_processors=120, speed_gflops=3.1)


def paper_platforms() -> tuple[Cluster, Cluster]:
    """Both evaluation platforms, in the paper's (Chti, Grelon) order."""
    return (chti(), grelon())


#: the preset platforms :func:`by_name` builds, by name
PLATFORMS = {"chti": chti, "grelon": grelon}


def by_name(name: str) -> Cluster:
    """Look up a preset platform by (case-insensitive) name."""
    try:
        return PLATFORMS[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(PLATFORMS))
        raise KeyError(
            f"unknown platform {name!r}; known presets: {known}"
        ) from None
