"""Unit tests for the Strassen PTG generator."""

import pytest

from repro.exceptions import GraphError
from repro.graph import precedence_levels, validate_ptg
from repro.workloads import generate_strassen, strassen_task_count


class TestTaskCount:
    def test_single_level_is_23(self):
        assert strassen_task_count(1) == 23

    def test_recursive_counts(self):
        # count(k) = 16 + 7*count(k-1)
        assert strassen_task_count(2) == 16 + 7 * 23

    def test_invalid_depth(self):
        with pytest.raises(GraphError):
            strassen_task_count(0)


class TestStructure:
    def test_generated_size(self):
        assert generate_strassen(rng=1).num_tasks == 23

    def test_single_source_single_sink(self):
        g = generate_strassen(rng=2)
        assert len(g.sources) == 1
        assert len(g.sinks) == 1
        assert g.task(g.sources[0]).kind == "strassen-split"
        assert g.task(g.sinks[0]).kind == "strassen-assemble"

    def test_seven_multiplications(self):
        g = generate_strassen(rng=3)
        mults = [t for t in g.tasks if t.kind == "strassen-mult"]
        assert len(mults) == 7

    def test_ten_additions_four_combines(self):
        g = generate_strassen(rng=4)
        assert sum(t.kind == "strassen-add" for t in g.tasks) == 10
        assert sum(t.kind == "strassen-combine" for t in g.tasks) == 4

    def test_five_precedence_levels(self):
        g = generate_strassen(rng=5)
        lv = precedence_levels(g)
        assert int(lv.max()) == 4  # partition, adds, mults, combines, sink

    def test_mults_depend_on_their_operands(self):
        g = generate_strassen(rng=6)
        m1 = g.index("M1")
        pred_names = {g.task(u).name for u in g.predecessors(m1)}
        assert pred_names == {"S1", "S2"}

    def test_combine_terms(self):
        g = generate_strassen(rng=7)
        c11 = g.index("C11")
        pred_names = {g.task(u).name for u in g.predecessors(c11)}
        assert pred_names == {"M1", "M4", "M5", "M7"}

    def test_validates(self):
        rep = validate_ptg(
            generate_strassen(rng=8), require_connected=True
        )
        assert rep.ok, str(rep)


class TestRecursive:
    def test_depth2_size(self):
        g = generate_strassen(rng=9, depth=2)
        assert g.num_tasks == strassen_task_count(2)

    def test_depth2_validates(self):
        rep = validate_ptg(
            generate_strassen(rng=10, depth=2), require_connected=True
        )
        assert rep.ok, str(rep)

    def test_invalid_depth(self):
        with pytest.raises(GraphError):
            generate_strassen(rng=1, depth=0)


class TestCosts:
    def test_mult_cost_dominates_adds(self):
        g = generate_strassen(rng=11, data_size=1e8)
        mult_work = min(
            t.work for t in g.tasks if t.kind == "strassen-mult"
        )
        add_work = max(
            t.work for t in g.tasks if t.kind == "strassen-add"
        )
        assert mult_work > add_work

    def test_fixed_data_size(self):
        g = generate_strassen(rng=12, data_size=4e6)
        src = g.task(g.sources[0])
        assert src.data_size == 4e6

    def test_same_seed_reproducible(self):
        assert generate_strassen(rng=13) == generate_strassen(rng=13)
