"""Figure 2 — the allocation-vector encoding of individuals.

The paper's Figure 2 is an illustration: a five-node PTG where each node
carries a processor allocation, encoded as the vector ``I`` with
``I(i) = s(v_i)``.  We regenerate it as a concrete demonstration: the
same five-node fork-join PTG, the same example allocations, and the
rendered encoding table — doubling as a doctest of
:func:`repro.core.describe_genome`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...core import describe_genome
from ...graph import PTG, PTGBuilder
from ...mapping import check_allocation

__all__ = ["Figure2Data", "generate_figure2"]


def _example_ptg() -> PTG:
    """The five-node PTG sketched in the paper's Figure 2."""
    b = PTGBuilder("figure2-example")
    n1 = b.add_task("node1", work=1e9)
    n2 = b.add_task("node2", work=1e9)
    n3 = b.add_task("node3", work=1e9)
    n4 = b.add_task("node4", work=1e9)
    n5 = b.add_task("node5", work=1e9)
    b.add_edges(
        [(n1, n2), (n1, n3), (n2, n4), (n3, n4), (n3, n5)]
    )
    return b.build()


@dataclass
class Figure2Data:
    """The example PTG and its encoded individual."""

    ptg: PTG
    genome: np.ndarray

    def render(self) -> str:
        """The Figure 2 encoding table as text."""
        return (
            f"PTG {self.ptg.name!r}: {self.ptg.num_tasks} nodes, "
            f"{self.ptg.num_edges} edges\n"
            f"individual I = {list(map(int, self.genome))}\n\n"
            + describe_genome(self.ptg, self.genome)
            + "\n"
        )


def generate_figure2(P: int = 8) -> Figure2Data:
    """Build the encoding demonstration (Figure 2).

    The example allocations mirror the paper's sketch (node 1 gets three
    processors, stored at position 1 of the individual).
    """
    ptg = _example_ptg()
    genome = np.array([3, 2, 1, 2, 1], dtype=np.int64)
    check_allocation(genome, ptg, P)
    return Figure2Data(ptg=ptg, genome=genome)
