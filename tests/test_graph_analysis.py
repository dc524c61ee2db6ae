"""Unit tests for graph analyses (bottom/top levels, critical path,
precedence levels, delta-critical sets)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import cpa as cpa_mod
from repro.allocation.mcpa import McpaAllocator
from repro.exceptions import GraphError, ValidationError
from repro.graph import (
    PTG,
    Task,
    bottom_levels,
    chain,
    critical_path,
    critical_path_length,
    delta_critical_sets,
    graph_width,
    level_members,
    precedence_levels,
    top_levels,
)
from repro.mapping import ScheduleKernel, _cscheduler
from repro.platform import chti
from repro.timemodels import AmdahlModel, TimeTable
from repro.workloads import (
    DaggenParams,
    generate_daggen,
    generate_fft,
    generate_strassen,
)


def times_of(ptg, mapping):
    """Helper: build a times array from {name: time}."""
    t = np.zeros(ptg.num_tasks)
    for name, val in mapping.items():
        t[ptg.index(name)] = val
    return t


class TestBottomLevels:
    def test_chain(self):
        g = chain([1.0, 1.0, 1.0])
        t = np.array([1.0, 2.0, 3.0])
        bl = bottom_levels(g, t)
        # bl includes own time: sink = 3, middle = 2+3, head = 1+2+3
        assert bl.tolist() == [6.0, 5.0, 3.0]

    def test_diamond(self, diamond_ptg):
        t = times_of(diamond_ptg, {"a": 1, "b": 2, "c": 4, "d": 1})
        bl = bottom_levels(diamond_ptg, t)
        assert bl[diamond_ptg.index("d")] == 1
        assert bl[diamond_ptg.index("b")] == 3
        assert bl[diamond_ptg.index("c")] == 5
        assert bl[diamond_ptg.index("a")] == 6  # 1 + max(3, 5)

    def test_single_node(self, single_task_ptg):
        bl = bottom_levels(single_task_ptg, np.array([7.0]))
        assert bl.tolist() == [7.0]

    def test_zero_times_allowed(self, diamond_ptg):
        bl = bottom_levels(diamond_ptg, np.zeros(4))
        assert np.all(bl == 0)

    def test_shape_mismatch_rejected(self, diamond_ptg):
        with pytest.raises(ValidationError, match="shape"):
            bottom_levels(diamond_ptg, np.ones(3))

    def test_negative_times_rejected(self, diamond_ptg):
        with pytest.raises(ValidationError, match="non-negative"):
            bottom_levels(diamond_ptg, np.array([1, -1, 1, 1.0]))

    def test_nan_times_rejected(self, diamond_ptg):
        with pytest.raises(ValidationError):
            bottom_levels(
                diamond_ptg, np.array([1, np.nan, 1, 1.0])
            )

    def test_matches_recursive_reference(self, irregular_ptg, rng):
        t = rng.random(irregular_ptg.num_tasks) * 10
        bl = bottom_levels(irregular_ptg, t)
        ref = t.copy()
        for v in irregular_ptg.topological_order[::-1]:
            succs = irregular_ptg.successors(int(v))
            if succs:
                ref[v] = t[v] + max(ref[w] for w in succs)
        assert np.allclose(bl, ref)


class TestTopLevels:
    def test_chain(self):
        g = chain([1.0, 1.0, 1.0])
        t = np.array([1.0, 2.0, 3.0])
        tl = top_levels(g, t)
        assert tl.tolist() == [0.0, 1.0, 3.0]

    def test_diamond(self, diamond_ptg):
        t = times_of(diamond_ptg, {"a": 1, "b": 2, "c": 4, "d": 1})
        tl = top_levels(diamond_ptg, t)
        assert tl[diamond_ptg.index("a")] == 0
        assert tl[diamond_ptg.index("b")] == 1
        assert tl[diamond_ptg.index("c")] == 1
        assert tl[diamond_ptg.index("d")] == 5  # max(1+2, 1+4)

    def test_matches_recursive_reference(self, irregular_ptg, rng):
        t = rng.random(irregular_ptg.num_tasks) * 10
        tl = top_levels(irregular_ptg, t)
        ref = np.zeros(irregular_ptg.num_tasks)
        for v in irregular_ptg.topological_order:
            preds = irregular_ptg.predecessors(int(v))
            if preds:
                ref[v] = max(ref[u] + t[u] for u in preds)
        assert np.allclose(tl, ref)

    def test_tl_plus_bl_bounded_by_cp(self, irregular_ptg, rng):
        t = rng.random(irregular_ptg.num_tasks)
        tl = top_levels(irregular_ptg, t)
        bl = bottom_levels(irregular_ptg, t)
        t_cp = bl.max()
        assert np.all(tl + bl <= t_cp + 1e-9)


class TestPrecedenceLevels:
    def test_chain(self):
        g = chain([1.0] * 4)
        assert precedence_levels(g).tolist() == [0, 1, 2, 3]

    def test_diamond(self, diamond_ptg):
        lv = precedence_levels(diamond_ptg)
        assert lv[diamond_ptg.index("a")] == 0
        assert lv[diamond_ptg.index("b")] == 1
        assert lv[diamond_ptg.index("c")] == 1
        assert lv[diamond_ptg.index("d")] == 2

    def test_cached(self, diamond_ptg):
        lv1 = precedence_levels(diamond_ptg)
        lv2 = precedence_levels(diamond_ptg)
        assert lv1 is lv2

    def test_edges_go_deeper(self, irregular_ptg):
        lv = precedence_levels(irregular_ptg)
        for u, v in irregular_ptg.edges:
            assert lv[v] > lv[u]

    def test_level_members_partition(self, irregular_ptg):
        members = level_members(irregular_ptg)
        all_nodes = np.concatenate(members)
        assert sorted(all_nodes) == list(range(irregular_ptg.num_tasks))

    def test_graph_width(self, fork_join_ptg):
        assert graph_width(fork_join_ptg) == 6


class TestCriticalPath:
    def test_chain_is_its_own_cp(self):
        g = chain([1.0] * 3)
        t = np.ones(3)
        assert critical_path(g, t) == [0, 1, 2]
        assert critical_path_length(g, t) == 3.0

    def test_diamond_follows_heavy_branch(self, diamond_ptg):
        t = times_of(diamond_ptg, {"a": 1, "b": 2, "c": 4, "d": 1})
        path = critical_path(diamond_ptg, t)
        names = [diamond_ptg.task(v).name for v in path]
        assert names == ["a", "c", "d"]

    def test_path_is_connected(self, irregular_ptg, rng):
        t = rng.random(irregular_ptg.num_tasks)
        path = critical_path(irregular_ptg, t)
        for u, v in zip(path, path[1:]):
            assert v in irregular_ptg.successors(u)

    def test_path_length_equals_cp(self, irregular_ptg, rng):
        t = rng.random(irregular_ptg.num_tasks)
        path = critical_path(irregular_ptg, t)
        assert sum(t[v] for v in path) == pytest.approx(
            critical_path_length(irregular_ptg, t)
        )

    def test_starts_at_source_ends_at_sink(self, irregular_ptg, rng):
        t = rng.random(irregular_ptg.num_tasks)
        path = critical_path(irregular_ptg, t)
        assert path[0] in irregular_ptg.sources
        assert path[-1] in irregular_ptg.sinks


class TestDeltaCritical:
    def test_delta_one_only_max(self, fork_join_ptg):
        t = np.array([1.0] + [1, 2, 3, 4, 5, 6] + [1.0])
        sets = delta_critical_sets(fork_join_ptg, t, delta=1.0)
        # the branch level: only the heaviest branch is critical
        branch_level = sets[1]
        assert len(branch_level) == 1
        assert fork_join_ptg.task(int(branch_level[0])).name == "branch5"

    def test_delta_zero_everything(self, fork_join_ptg):
        t = np.ones(8)
        sets = delta_critical_sets(fork_join_ptg, t, delta=0.0)
        assert len(sets[1]) == 6  # every branch is critical

    def test_delta_09_near_critical_included(self, fork_join_ptg):
        # branches with bl 10 and 9.5: both within 10% of the max
        t = np.array([1.0, 10.0, 9.5, 1.0, 1.0, 1.0, 1.0, 1.0])
        sets = delta_critical_sets(fork_join_ptg, t, delta=0.9)
        crit_names = {
            fork_join_ptg.task(int(v)).name for v in sets[1]
        }
        assert crit_names == {"branch0", "branch1"}

    def test_invalid_delta_rejected(self, fork_join_ptg):
        with pytest.raises(ValidationError, match="delta"):
            delta_critical_sets(fork_join_ptg, np.ones(8), delta=1.5)

    def test_every_level_has_a_critical_task(self, irregular_ptg, rng):
        t = rng.random(irregular_ptg.num_tasks) + 0.1
        sets = delta_critical_sets(irregular_ptg, t, delta=0.9)
        for s in sets:
            assert len(s) >= 1


def recursive_levels(ptg, times):
    """Bottom and top levels read straight off their definitions, by a
    memoized longest-path recursion over the PTG's adjacency."""
    t = [float(x) for x in times]
    bl_memo, tl_memo = {}, {}

    def bl(v):
        if v not in bl_memo:
            bl_memo[v] = t[v] + max(
                (bl(w) for w in ptg.successors(v)), default=0.0
            )
        return bl_memo[v]

    def tl(v):
        if v not in tl_memo:
            tl_memo[v] = max(
                (tl(u) + t[u] for u in ptg.predecessors(v)), default=0.0
            )
        return tl_memo[v]

    V = ptg.num_tasks
    return (
        np.array([bl(v) for v in range(V)], dtype=np.float64),
        np.array([tl(v) for v in range(V)], dtype=np.float64),
    )


def assert_bitwise(got, ref):
    assert got.dtype == np.float64 and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@st.composite
def shuffled_dags_with_times(draw, max_nodes=24):
    """A DAG whose task indices are a random permutation of a
    topological order (so index order is not one), with positive times
    spread over several magnitudes."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    label = draw(st.permutations(range(n)))
    edges = [
        (label[u], label[v])
        for u in range(n)
        for v in range(u + 1, n)
        if draw(st.booleans())
    ]
    ptg = PTG([Task(f"t{i}", work=1.0) for i in range(n)], edges)
    times = np.array(
        draw(
            st.lists(
                st.floats(min_value=1e-6, max_value=1e9),
                min_size=n,
                max_size=n,
            )
        )
    )
    return ptg, times


class TestLevelsMatchRecursion:
    """The list sweeps equal the longest-path definitions bit for bit."""

    @given(shuffled_dags_with_times())
    @settings(max_examples=150, deadline=None)
    def test_random_dags(self, case):
        ptg, times = case
        ref_bl, ref_tl = recursive_levels(ptg, times)
        assert_bitwise(bottom_levels(ptg, times), ref_bl)
        assert_bitwise(top_levels(ptg, times), ref_tl)

    @pytest.mark.parametrize(
        "ptg",
        [
            generate_fft(4, rng=1),
            generate_fft(16, rng=2),
            generate_strassen(rng=3),
            generate_daggen(DaggenParams(100, jump=2), rng=4),
            generate_daggen(
                DaggenParams(60, width=0.2, regularity=0.9, density=0.9),
                rng=5,
            ),
        ],
        ids=["fft15", "fft95", "strassen", "daggen100", "daggen60-narrow"],
    )
    def test_paper_graphs(self, ptg):
        rng = np.random.default_rng(ptg.num_tasks)
        for magnitude in (-3, 0, 3, 8):
            times = rng.random(ptg.num_tasks) * 10.0**magnitude + 1e-9
            # and a mix of magnitudes within one vector
            mixed = times * 10.0 ** rng.integers(-3, 4, size=ptg.num_tasks)
            for t in (times, mixed):
                ref_bl, ref_tl = recursive_levels(ptg, t)
                assert_bitwise(bottom_levels(ptg, t), ref_bl)
                assert_bitwise(top_levels(ptg, t), ref_tl)

    def test_top_levels_check_times_too(self, diamond_ptg):
        with pytest.raises(ValidationError, match="shape"):
            top_levels(diamond_ptg, np.ones(5))
        with pytest.raises(ValidationError, match="non-negative"):
            top_levels(diamond_ptg, np.array([1.0, np.inf, 1.0, 1.0]))


def edges_into(ptg, nodes):
    """The edges among ``nodes`` in local indices, listed the way
    :meth:`PTG.induced` lists them: by source position, then by the
    original index of the target."""
    pos = {v: i for i, v in enumerate(nodes)}
    return [
        (i, pos[w])
        for i, v in enumerate(nodes)
        for w in ptg.successors(v)
        if w in pos
    ]


def array_fields(ptg):
    """``ptg.arrays`` as plain lists, the order left out."""
    return {
        name: getattr(ptg.arrays, name).tolist()
        for name in ptg.arrays._fields
        if name != "order"
    }


def assert_topological(ptg, order):
    assert sorted(order) == list(range(ptg.num_tasks))
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[u] < pos[v] for u, v in ptg.edges)


class TestGraphArrays:
    """``PTG.arrays`` is the one array form of the DAG: it agrees with
    the PTG's tuples, is read-only int32, and every native consumer
    reads it as it is."""

    @given(shuffled_dags_with_times())
    @settings(max_examples=150, deadline=None)
    def test_arrays_agree_with_the_tuples(self, case):
        ptg, _ = case
        a = ptg.arrays
        V = ptg.num_tasks
        assert a.succ_indptr[0] == a.pred_indptr[0] == 0
        for v in range(V):
            succ = a.succ_indices[a.succ_indptr[v]:a.succ_indptr[v + 1]]
            pred = a.pred_indices[a.pred_indptr[v]:a.pred_indptr[v + 1]]
            assert succ.tolist() == list(ptg.successors(v))
            assert pred.tolist() == list(ptg.predecessors(v))
            assert a.level[v] == 1 + max(
                (a.level[u] for u in ptg.predecessors(v)), default=-1
            )
        assert a.in_degree.tolist() == list(ptg.in_degrees)
        assert_topological(ptg, a.order.tolist())
        assert precedence_levels(ptg) is a.level
        assert ptg.topological_order is a.order

    def test_read_only_int32_built_once(self, irregular_ptg):
        a = irregular_ptg.arrays
        assert irregular_ptg.arrays is a
        for arr in a:
            assert arr.dtype == np.int32
            assert arr.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_kernel_binds_the_ptgs_own_arrays(self, irregular_ptg):
        ptg = irregular_ptg
        table = TimeTable.build(AmdahlModel(), ptg, chti())
        kernel = ScheduleKernel(ptg, table)
        if kernel._c is None:
            pytest.skip("native library unavailable: nothing is bound")
        ffi, _, handles = kernel._c
        a = ptg.arrays
        own = (a.order, a.succ_indptr, a.succ_indices, a.in_degree)
        for handle, arr in zip(handles[1:], own):
            bound = np.frombuffer(ffi.buffer(handle), dtype=np.int32)
            assert np.shares_memory(bound, arr)
            assert int(ffi.cast("uintptr_t", handle)) == arr.ctypes.data

    def test_cpa_loop_reads_the_same_arrays(self, irregular_ptg):
        ffi, lib = _cscheduler.load()
        if lib is None:
            pytest.skip("native library unavailable")
        ptg = irregular_ptg
        table = TimeTable.build(AmdahlModel(), ptg, chti())
        seen = []

        class Recording:
            def cpa_allocate(self, *args):
                seen.extend(args)
                return lib.cpa_allocate(*args)

        loop = McpaAllocator()._loop(ptg, table)
        cpa_mod._grow_native(loop, ffi, Recording())
        a = ptg.arrays
        graph = seen[3:8] + [seen[9]]  # topo, 4 CSR arrays, levels
        own = (
            a.order,
            a.succ_indptr,
            a.succ_indices,
            a.pred_indptr,
            a.pred_indices,
            a.level,
        )
        for pointer, arr in zip(graph, own):
            assert int(ffi.cast("uintptr_t", pointer)) == arr.ctypes.data


class TestInduced:
    """``PTG.induced`` cuts the sub-graph the full constructor would
    build, from the parent's tuples and without a second sort."""

    @given(shuffled_dags_with_times(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_full_constructor(self, case, data):
        ptg, _ = case
        perm = data.draw(st.permutations(range(ptg.num_tasks)))
        nodes = perm[: data.draw(st.integers(1, ptg.num_tasks))]
        sub = ptg.induced(nodes, name="sub")
        ref = PTG([ptg.task(v) for v in nodes], edges_into(ptg, nodes), "sub")
        assert sub == ref and sub.name == ref.name
        assert all(t is ptg.task(v) for t, v in zip(sub.tasks, nodes))
        assert sub.edges == ref.edges
        for v in range(len(nodes)):
            assert sub.successors(v) == ref.successors(v)
            assert sub.predecessors(v) == ref.predecessors(v)
            assert sub.index(ref.task(v).name) == v
        assert sub.in_degrees == ref.in_degrees
        for attr in ("work", "alpha", "data_size"):
            assert getattr(sub, attr).tolist() == getattr(ref, attr).tolist()
        assert array_fields(sub) == array_fields(ref)
        # the order is the parent's, restricted to the nodes
        pos = {v: i for i, v in enumerate(nodes)}
        assert sub.topological_order.tolist() == [
            pos[v] for v in ptg.topological_order.tolist() if v in pos
        ]
        assert_topological(sub, sub.topological_order.tolist())

    @pytest.mark.parametrize(
        "nodes, match",
        [
            ([0, 2, 0], "listed twice"),
            ([1, 4], "not in PTG"),
            ([-1, 2], "not in PTG"),
            ([], "at least one task"),
        ],
    )
    def test_rejects_bad_nodes(self, diamond_ptg, nodes, match):
        with pytest.raises(GraphError, match=match):
            diamond_ptg.induced(nodes)
