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
once at construction.  The tuples serve the Python sweeps of
:mod:`repro.graph.analysis` and the reference mapper.  :attr:`PTG.arrays`
is the graph's one array form (:class:`GraphArrays`: topological order,
successor and predecessor CSR, in-degrees and precedence levels, all
read-only int32), built from the tuples at first use; the compiled
scheduling kernel, the native CPA-family loop and
:func:`~repro.graph.analysis.precedence_levels` read it as it is.
:meth:`PTG.induced` cuts a sub-graph (an online frontier) out of a PTG
without validating or sorting it again.  Instances are immutable after
construction (builders live in :mod:`repro.graph.builder`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ..exceptions import CycleError, GraphError

__all__ = ["Task", "PTG", "GraphArrays"]


def _freeze(*arrays: np.ndarray) -> None:
    """Make every array read-only."""
    for arr in arrays:
        arr.setflags(write=False)


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


class GraphArrays(NamedTuple):
    """A PTG's structure as read-only int32 arrays (:attr:`PTG.arrays`).

    ``succ_indices[succ_indptr[v]:succ_indptr[v + 1]]`` are task ``v``'s
    successors in ascending order and the ``pred_*`` pair its
    predecessors; ``order`` is the PTG's topological order and ``level``
    its precedence levels (0 for a source, else one more than the
    deepest predecessor's).
    """

    order: np.ndarray
    succ_indptr: np.ndarray
    succ_indices: np.ndarray
    pred_indptr: np.ndarray
    pred_indices: np.ndarray
    in_degree: np.ndarray
    level: np.ndarray


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
        "_in_degree",
        "_order",
        "_work",
        "_alpha",
        "_data_size",
        "_arrays",
    )

    def __init__(
        self,
        tasks: Sequence[Task],
        edges: Iterable[tuple[int, int]],
        name: str = "ptg",
    ) -> None:
        tasks = tuple(tasks)
        if not tasks:
            raise GraphError("a PTG must contain at least one task")

        index_of: dict[str, int] = {}
        for i, t in enumerate(tasks):
            if not isinstance(t, Task):
                raise GraphError(f"node {i} is not a Task: {t!r}")
            if t.name in index_of:
                raise GraphError(f"duplicate task name {t.name!r}")
            index_of[t.name] = i

        n = len(tasks)
        unique: dict[tuple[int, int], None] = {}
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) references unknown node")
            if u == v:
                raise GraphError(f"self-loop on node {u}")
            unique[u, v] = None  # silently de-duplicate parallel edges
        self._fill(name, tasks, index_of, list(unique))
        self._order: tuple[int, ...] = self._toposort()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _fill(self, name, tasks, index_of, edges) -> None:
        """Set every attribute but the topological order from checked
        tasks, their name index and distinct, in-range edges."""
        preds: list[list[int]] = [[] for _ in tasks]
        succs: list[list[int]] = [[] for _ in tasks]
        for u, v in edges:
            preds[v].append(u)
            succs[u].append(v)
        self.name = name
        self._tasks: tuple[Task, ...] = tasks
        self._index_of: dict[str, int] = index_of
        self._edges: tuple[tuple[int, int], ...] = tuple(edges)
        self._preds = tuple(tuple(sorted(p)) for p in preds)
        self._succs = tuple(tuple(sorted(s)) for s in succs)
        self._in_degree = tuple(map(len, preds))
        self._work = np.array([t.work for t in tasks], dtype=np.float64)
        self._alpha = np.array([t.alpha for t in tasks], dtype=np.float64)
        self._data_size = np.array(
            [t.data_size for t in tasks], dtype=np.float64
        )
        _freeze(self._work, self._alpha, self._data_size)
        self._arrays: GraphArrays | None = None  # built by .arrays

    def _toposort(self) -> tuple[int, ...]:
        """Kahn's algorithm; raises :class:`CycleError` on cycles."""
        n = len(self._tasks)
        indeg = list(self._in_degree)
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
        """Dataset size (doubles) per task (read-only float64 array)."""
        return self._data_size

    @property
    def topological_order(self) -> np.ndarray:
        """A valid topological order: ``arrays.order``, read-only int32."""
        return self.arrays.order

    @property
    def arrays(self) -> GraphArrays:
        """The graph as read-only int32 arrays, built at first use."""
        if self._arrays is None:
            level = [0] * len(self._order)
            for v in self._order:  # v's level is final: push it down
                below = level[v] + 1
                for w in self._succs[v]:
                    if level[w] < below:
                        level[w] = below
            arrays = GraphArrays(
                *(
                    np.fromiter(values, dtype=np.int32)
                    for values in (
                        self._order,
                        accumulate(map(len, self._succs), initial=0),
                        chain.from_iterable(self._succs),
                        accumulate(self._in_degree, initial=0),
                        chain.from_iterable(self._preds),
                        self._in_degree,
                        level,
                    )
                )
            )
            _freeze(*arrays)
            self._arrays = arrays
        return self._arrays

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
    def in_degrees(self) -> tuple[int, ...]:
        """Number of predecessors of each task, in index order."""
        return self._in_degree

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

    # a pickle or a deep copy carries the tuples and the attribute
    # arrays, which numpy hands back writable: they are frozen again on
    # arrival, and the array form, a cache, is rebuilt at first use
    def __getstate__(self) -> dict:
        state = {slot: getattr(self, slot) for slot in PTG.__slots__}
        state["_arrays"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        _freeze(self._work, self._alpha, self._data_size)

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

    def induced(self, nodes: Iterable[int], name: str = "ptg") -> "PTG":
        """The sub-graph on ``nodes``, whose node ``i`` is ``nodes[i]``.

        It holds this graph's :class:`Task` objects and every edge
        between two of ``nodes``, and equals ``PTG([self.task(v) for v
        in nodes], edges, name)`` with the edges listed by source
        position, each source's by ascending original target.  Nothing
        is validated or sorted again: the adjacency is this graph's,
        filtered, and so is the topological order.  Raises
        :class:`GraphError` on an empty, repeated or unknown node.
        """
        n = len(self._tasks)
        pos: dict[int, int] = {}
        for v in nodes:
            v = int(v)
            if not 0 <= v < n:
                raise GraphError(f"node {v} is not in PTG {self.name!r}")
            if v in pos:
                raise GraphError(f"node {v} is listed twice")
            pos[v] = len(pos)
        if not pos:
            raise GraphError("a PTG must contain at least one task")
        tasks = tuple(self._tasks[v] for v in pos)
        sub = PTG.__new__(PTG)
        sub._fill(
            name,
            tasks,
            {t.name: i for i, t in enumerate(tasks)},
            [
                (i, pos[w])
                for v, i in pos.items()
                for w in self._succs[v]
                if w in pos
            ],
        )
        sub._order = tuple(pos[v] for v in self._order if v in pos)
        return sub

    def relabeled(self, name: str) -> "PTG":
        """Return an identical graph carrying a different ``name``."""
        out = PTG.__new__(PTG)
        for slot in PTG.__slots__:
            object.__setattr__(out, slot, getattr(self, slot))
        out.name = name
        return out
