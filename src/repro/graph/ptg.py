"""Parallel task graph (PTG) data model.

A PTG is a directed acyclic graph whose nodes are *moldable* parallel tasks
(Section II-A of the paper).  Each task carries:

``work``
    Computational cost in floating-point operations (FLOP).
``alpha``
    Amdahl non-parallelizable fraction, ``0 <= alpha <= 1``.  Used by the
    execution-time models of Section IV-B.
``data_size``
    Number of 8-byte doubles the task operates on (``d`` in the paper);
    informational for workload generation, not used by the scheduler itself.

The class is designed for the hot loop of the evolutionary optimizer: node
attributes are mirrored into NumPy arrays, predecessor/successor lists are
stored as tuples of integer indices, and a topological order is computed
once at construction, kept as a tuple (for the list sweeps of
:mod:`repro.graph.analysis`) and as an int64 array.  Instances are
immutable after construction (builders live in
:mod:`repro.graph.builder`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import CycleError, GraphError

__all__ = ["Task", "PTG"]


@dataclass(frozen=True)
class Task:
    """A single moldable parallel task.

    Parameters
    ----------
    name:
        Unique identifier within its PTG.
    work:
        Cost in FLOP; must be positive.
    alpha:
        Non-parallelizable fraction of the task (Amdahl), in ``[0, 1]``.
    data_size:
        Dataset size in doubles (``d``); zero means "unspecified".
    kind:
        Free-form label, e.g. ``"fft-butterfly"`` or ``"strassen-mult"``.
    """

    name: str
    work: float
    alpha: float = 0.0
    data_size: float = 0.0
    kind: str = "task"

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("task name must be a non-empty string")
        if not np.isfinite(self.work) or self.work <= 0.0:
            raise GraphError(
                f"task {self.name!r}: work must be finite and > 0, "
                f"got {self.work!r}"
            )
        if not (0.0 <= self.alpha <= 1.0):
            raise GraphError(
                f"task {self.name!r}: alpha must lie in [0, 1], "
                f"got {self.alpha!r}"
            )
        if self.data_size < 0.0:
            raise GraphError(
                f"task {self.name!r}: data_size must be >= 0, "
                f"got {self.data_size!r}"
            )

    def with_updates(self, **changes) -> "Task":
        """Return a copy of this task with ``changes`` applied."""
        current = {
            "name": self.name,
            "work": self.work,
            "alpha": self.alpha,
            "data_size": self.data_size,
            "kind": self.kind,
        }
        current.update(changes)
        return Task(**current)


class PTG:
    """An immutable parallel task graph.

    Parameters
    ----------
    tasks:
        Sequence of :class:`Task`; node ``i`` of the graph is ``tasks[i]``.
    edges:
        Iterable of ``(src_index, dst_index)`` pairs meaning *dst depends on
        src* (src must complete before dst may start).
    name:
        Optional graph label used in reports.

    Raises
    ------
    GraphError
        On duplicate task names, out-of-range or self-loop edges.
    CycleError
        If the edge set contains a cycle.
    """

    __slots__ = (
        "name",
        "_tasks",
        "_index_of",
        "_preds",
        "_succs",
        "_edges",
        "_order",
        "_topo",
        "_work",
        "_alpha",
        "_data_size",
        "_levels",
        "_csr_cache",
    )

    def __init__(
        self,
        tasks: Sequence[Task],
        edges: Iterable[tuple[int, int]],
        name: str = "ptg",
    ) -> None:
        self.name = name
        self._tasks: tuple[Task, ...] = tuple(tasks)
        if not self._tasks:
            raise GraphError("a PTG must contain at least one task")

        self._index_of: dict[str, int] = {}
        for i, t in enumerate(self._tasks):
            if not isinstance(t, Task):
                raise GraphError(f"node {i} is not a Task: {t!r}")
            if t.name in self._index_of:
                raise GraphError(f"duplicate task name {t.name!r}")
            self._index_of[t.name] = i

        n = len(self._tasks)
        edge_list: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        preds: list[list[int]] = [[] for _ in range(n)]
        succs: list[list[int]] = [[] for _ in range(n)]
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) references unknown node")
            if u == v:
                raise GraphError(f"self-loop on node {u}")
            if (u, v) in seen:
                continue  # silently de-duplicate parallel edges
            seen.add((u, v))
            edge_list.append((u, v))
            preds[v].append(u)
            succs[u].append(v)

        self._edges: tuple[tuple[int, int], ...] = tuple(edge_list)
        self._preds: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(p)) for p in preds
        )
        self._succs: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in succs
        )
        self._order: tuple[int, ...] = self._toposort()
        self._topo: np.ndarray = np.asarray(self._order, dtype=np.int64)
        self._work = np.array([t.work for t in self._tasks], dtype=np.float64)
        self._alpha = np.array(
            [t.alpha for t in self._tasks], dtype=np.float64
        )
        self._data_size = np.array(
            [t.data_size for t in self._tasks], dtype=np.float64
        )
        self._levels: np.ndarray | None = None  # filled lazily by analysis
        self._csr_cache = None  # filled lazily by analysis.csr_adjacency

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _toposort(self) -> tuple[int, ...]:
        """Kahn's algorithm; raises :class:`CycleError` on cycles."""
        n = len(self._tasks)
        indeg = [len(p) for p in self._preds]
        stack = [i for i in range(n) if indeg[i] == 0]
        order: list[int] = []
        while stack:
            u = stack.pop()
            order.append(u)
            for v in self._succs[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
        if len(order) != n:
            remaining = [
                self._tasks[i].name for i in range(n) if indeg[i] > 0
            ]
            raise CycleError(
                f"task graph {self.name!r} contains a cycle involving "
                f"{remaining[:5]}"
            )
        return tuple(order)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        """Number of nodes ``V``."""
        return len(self._tasks)

    @property
    def num_edges(self) -> int:
        """Number of edges ``E``."""
        return len(self._edges)

    @property
    def tasks(self) -> tuple[Task, ...]:
        """All tasks in index order."""
        return self._tasks

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All ``(src, dst)`` edges."""
        return self._edges

    @property
    def work(self) -> np.ndarray:
        """FLOP cost per task (read-only float64 array of length V)."""
        return self._work

    @property
    def alpha(self) -> np.ndarray:
        """Amdahl fraction per task (read-only float64 array of length V)."""
        return self._alpha

    @property
    def data_size(self) -> np.ndarray:
        """Dataset size (doubles) per task."""
        return self._data_size

    @property
    def topological_order(self) -> np.ndarray:
        """Indices in a valid topological order (int64 array of length V)."""
        return self._topo

    def index(self, name: str) -> int:
        """Index of the task called ``name``."""
        try:
            return self._index_of[name]
        except KeyError:
            raise GraphError(
                f"no task named {name!r} in PTG {self.name!r}"
            ) from None

    def task(self, i: int) -> Task:
        """Task at index ``i``."""
        return self._tasks[i]

    def predecessors(self, i: int) -> tuple[int, ...]:
        """Indices of tasks that must finish before task ``i`` starts."""
        return self._preds[i]

    def successors(self, i: int) -> tuple[int, ...]:
        """Indices of tasks that depend on task ``i``."""
        return self._succs[i]

    @property
    def sources(self) -> tuple[int, ...]:
        """Indices of tasks without predecessors."""
        return tuple(
            i for i in range(self.num_tasks) if not self._preds[i]
        )

    @property
    def sinks(self) -> tuple[int, ...]:
        """Indices of tasks without successors."""
        return tuple(
            i for i in range(self.num_tasks) if not self._succs[i]
        )

    @property
    def total_work(self) -> float:
        """Sum of all task costs in FLOP."""
        return float(self._work.sum())

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_tasks

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __contains__(self, name: object) -> bool:
        return name in self._index_of

    def __repr__(self) -> str:
        return (
            f"PTG(name={self.name!r}, tasks={self.num_tasks}, "
            f"edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PTG):
            return NotImplemented
        return (
            self._tasks == other._tasks and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self._tasks, self._edges))

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` (node attrs from tasks)."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for i, t in enumerate(self._tasks):
            g.add_node(
                i,
                name=t.name,
                work=t.work,
                alpha=t.alpha,
                data_size=t.data_size,
                kind=t.kind,
            )
        g.add_edges_from(self._edges)
        return g

    @classmethod
    def from_networkx(cls, g, name: str | None = None) -> "PTG":
        """Build a PTG from a :class:`networkx.DiGraph`.

        Node attributes ``work`` (required), ``alpha``, ``data_size``,
        ``kind`` and ``name`` are honoured; node order follows
        ``sorted(g.nodes)``.
        """
        nodes = sorted(g.nodes)
        pos = {u: i for i, u in enumerate(nodes)}
        tasks = []
        for u in nodes:
            data: Mapping = g.nodes[u]
            if "work" not in data:
                raise GraphError(
                    f"networkx node {u!r} lacks required 'work' attribute"
                )
            tasks.append(
                Task(
                    name=str(data.get("name", u)),
                    work=float(data["work"]),
                    alpha=float(data.get("alpha", 0.0)),
                    data_size=float(data.get("data_size", 0.0)),
                    kind=str(data.get("kind", "task")),
                )
            )
        edges = [(pos[u], pos[v]) for u, v in g.edges]
        return cls(tasks, edges, name=name or str(g.name or "ptg"))

    def relabeled(self, name: str) -> "PTG":
        """Return an identical graph carrying a different ``name``."""
        out = PTG.__new__(PTG)
        for slot in PTG.__slots__:
            object.__setattr__(out, slot, getattr(self, slot))
        out.name = name
        return out
