"""Unit tests for EMTS's Eq. 1 mutation operator and the annealed
mutation count (paper Sections III-C/III-D, Figure 3)."""

import logging
import sys
import threading

import numpy as np
import pytest

from repro import emts5, emts10, grelon, SyntheticModel
from repro.core import (
    AllocationMutation,
    adjustment_pmf,
    mutation_count,
    sample_adjustments,
)
from repro.core import mutation as mutation_module
from repro.exceptions import ConfigurationError
from repro.mapping import _cscheduler
from repro.online import ReactionPolicy, Rescheduler
from repro.timemodels import TimeTable
from repro.workloads import generate_fft


class TestMutationCount:
    def test_paper_formula(self):
        # m = (1 - u/U) * fm * V, rounded
        assert mutation_count(V=100, u=0, U=5, fm=0.33) == 33
        assert mutation_count(V=100, u=1, U=5, fm=0.33) == 26
        assert mutation_count(V=100, u=4, U=5, fm=0.33) == 7

    def test_floor_at_one(self):
        assert mutation_count(V=100, u=5, U=5, fm=0.33) == 1
        assert mutation_count(V=3, u=2, U=3, fm=0.1) == 1

    def test_cap_at_V(self):
        assert mutation_count(V=2, u=0, U=5, fm=1.0) == 2

    def test_annealing_non_increasing(self):
        counts = [
            mutation_count(V=100, u=u, U=10, fm=0.33)
            for u in range(11)
        ]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(V=0, u=0, U=5, fm=0.33),
            dict(V=10, u=0, U=0, fm=0.33),
            dict(V=10, u=6, U=5, fm=0.33),
            dict(V=10, u=-1, U=5, fm=0.33),
            dict(V=10, u=0, U=5, fm=0.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            mutation_count(**kwargs)


class TestSampleAdjustments:
    def test_never_zero(self, rng):
        c = sample_adjustments(10_000, rng)
        assert np.all(c != 0)

    def test_magnitude_at_least_one(self, rng):
        c = sample_adjustments(10_000, rng)
        assert np.all(np.abs(c) >= 1)

    def test_shrink_probability(self, rng):
        c = sample_adjustments(
            100_000, rng, shrink_probability=0.2
        )
        assert np.mean(c < 0) == pytest.approx(0.2, abs=0.01)

    def test_stretch_more_likely_than_shrink(self, rng):
        """Paper constraint: shrinking less likely than stretching."""
        c = sample_adjustments(50_000, rng, shrink_probability=0.2)
        assert np.sum(c > 0) > np.sum(c < 0)

    def test_small_steps_more_likely_than_large(self, rng):
        """Paper constraint: changing by few processors more likely
        than by many."""
        c = np.abs(sample_adjustments(100_000, rng))
        small = np.mean(c <= 3)
        large = np.mean(c >= 10)
        assert small > large * 3

    def test_sigma_controls_spread(self, rng):
        narrow = sample_adjustments(
            50_000, rng, sigma_stretch=1.0, sigma_shrink=1.0
        )
        wide = sample_adjustments(
            50_000, rng, sigma_stretch=10.0, sigma_shrink=10.0
        )
        assert np.abs(wide).mean() > np.abs(narrow).mean()


class TestAdjustmentPmf:
    def test_zero_has_no_mass(self):
        assert adjustment_pmf(np.array([0]))[0] == 0.0

    def test_sums_to_one(self):
        k = np.arange(-200, 201)
        assert adjustment_pmf(k).sum() == pytest.approx(1.0, abs=1e-9)

    def test_branch_masses(self):
        k = np.arange(-200, 201)
        pmf = adjustment_pmf(k, shrink_probability=0.2)
        assert pmf[k < 0].sum() == pytest.approx(0.2, abs=1e-9)
        assert pmf[k > 0].sum() == pytest.approx(0.8, abs=1e-9)

    def test_matches_empirical(self, rng):
        draws = sample_adjustments(200_000, rng)
        k = np.arange(-15, 16)
        pmf = adjustment_pmf(k)
        emp = np.array(
            [np.mean(draws == kk) for kk in k]
        )
        assert np.max(np.abs(pmf - emp)) < 0.01

    def test_asymmetry_figure3(self):
        """Figure 3's visual: positive side taller than negative side."""
        assert adjustment_pmf(np.array([1]))[0] > adjustment_pmf(
            np.array([-1])
        )[0]


class TestAllocationMutation:
    def test_clamps_to_platform(self, rng):
        op = AllocationMutation(P=8, fm=1.0)
        g = np.full(50, 8, dtype=np.int64)
        for gen in range(1, 6):
            child = op.mutate(g, rng, gen, 5)
            assert child.min() >= 1
            assert child.max() <= 8

    def test_changes_expected_positions_gen0(self, rng):
        op = AllocationMutation(P=1000, fm=0.33)
        g = np.full(100, 500, dtype=np.int64)
        child = op.mutate(g, rng, 0, 5)
        # at generation 0: 33 positions mutated, all by a nonzero step
        assert np.count_nonzero(child != g) == 33

    def test_final_generation_mutates_one(self, rng):
        op = AllocationMutation(P=1000, fm=0.33)
        g = np.full(100, 500, dtype=np.int64)
        child = op.mutate(g, rng, 5, 5)
        assert np.count_nonzero(child != g) == 1

    def test_parent_untouched(self, rng):
        op = AllocationMutation(P=8, fm=0.5)
        g = np.full(20, 4, dtype=np.int64)
        op.mutate(g, rng, 1, 5)
        assert np.all(g == 4)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            AllocationMutation(P=0)
        with pytest.raises(ConfigurationError):
            AllocationMutation(P=8, fm=0.0)
        with pytest.raises(ConfigurationError):
            AllocationMutation(P=8, sigma_stretch=0.0)
        with pytest.raises(ConfigurationError):
            AllocationMutation(P=8, shrink_probability=2.0)

    def test_mostly_stretches(self, rng):
        op = AllocationMutation(P=100, fm=1.0, shrink_probability=0.2)
        g = np.full(1000, 50, dtype=np.int64)
        child = op.mutate(g, rng, 0, 5)
        grew = np.sum(child > g)
        shrank = np.sum(child < g)
        assert grew > 2 * shrank


# ----------------------------------------------------------------------
# a generation at once: the native offspring path against the
# per-child Python loop, its oracle and fallback


def _native_or_skip():
    native = mutation_module._native_offspring()
    if native is None:
        pytest.skip(
            "native offspring unavailable (REPRO_NO_CKERNEL, no compiler "
            "or no numpy sampler archive)"
        )
    return native


def _same_state(a, b) -> bool:
    """Deep equality of two ``bit_generator.state`` dicts (Philox and
    MT19937 hold arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            _same_state(a[k], b[k]) for k in a
        )
    return np.array_equal(a, b)


def _assert_same_block(native_rng, python_rng, made, want):
    assert made is not None
    assert np.array_equal(made[0], want[0])
    assert np.array_equal(made[1], want[1])
    assert made[1].dtype == np.int64
    assert _same_state(
        native_rng.bit_generator.state, python_rng.bit_generator.state
    )


def _parents(n, V, P, seed):
    # entries outside [1, P] too: unmutated alleles are clamped as well
    return np.random.default_rng(seed).integers(-2, P + 4, size=(n, V))


@pytest.mark.parametrize("V", [1, 2, 23, 95, 800])
@pytest.mark.parametrize("n_parents", [1, 5, 10])
def test_native_offspring_match_python_loop(V, n_parents):
    native = _native_or_skip()
    U = 5
    for P in (1, 20, 120):
        op = AllocationMutation(P=P)
        for seed in (0, 1, 2):
            parents = _parents(n_parents, V, P, seed)
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            if seed == 1:
                # a buffered half of a 64-bit draw (has_uint32 = 1)
                a.integers(7, dtype=np.uint32)
                b.integers(7, dtype=np.uint32)
            for u in range(U + 1):
                m = mutation_count(V, u, U, op.fm)
                made = mutation_module._offspring_native(
                    native, op, parents, 12, a, m
                )
                want = op._offspring_python(parents, 12, b, m)
                _assert_same_block(a, b, made, want)


def test_native_offspring_match_tail_shuffle_branch():
    """V > 10000 with m > V // 50: numpy's choice shuffles an arange."""
    native = _native_or_skip()
    V, U = 12000, 3
    op = AllocationMutation(P=120)
    parents = _parents(3, V, op.P, 0)
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    branches = set()
    for u in range(U + 1):
        m = mutation_count(V, u, U, op.fm)
        branches.add(m > V // 50)
        made = mutation_module._offspring_native(
            native, op, parents, 3, a, m
        )
        want = op._offspring_python(parents, 3, b, m)
        _assert_same_block(a, b, made, want)
    assert branches == {True, False}


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.PCG64, np.random.Philox, np.random.SFC64, np.random.MT19937],
)
def test_native_offspring_any_bit_generator(bit_generator):
    native = _native_or_skip()
    op = AllocationMutation(P=20, sigma_stretch=2.0, shrink_probability=0.4)
    parents = _parents(5, 39, op.P, 3)
    a = np.random.Generator(bit_generator(99))
    b = np.random.Generator(bit_generator(99))
    for u in range(6):
        m = mutation_count(39, u, 5, op.fm)
        made = mutation_module._offspring_native(
            native, op, parents, 10, a, m
        )
        want = op._offspring_python(parents, 10, b, m)
        _assert_same_block(a, b, made, want)


def test_offspring_validates_its_block():
    op = AllocationMutation(P=8)
    rng = np.random.default_rng(0)
    for shape, count in (((5,), 2), ((0, 5), 2), ((2, 5), -1)):
        with pytest.raises(ConfigurationError):
            op.offspring(np.ones(shape, dtype=np.int64), count, rng, 0, 5)
    index, children = op.offspring(
        np.ones((2, 5), dtype=np.int64), 0, rng, 0, 5
    )
    assert index.shape == (0,) and children.shape == (0, 5)


def test_offspring_without_a_generator_takes_python_loop():
    """A legacy RandomState (no bitgen_t) gets the per-child loop."""
    op = AllocationMutation(P=16)
    parents = _parents(1, 30, op.P, 5)
    made = op.offspring(parents, 4, np.random.RandomState(3), 1, 5)
    want = op._offspring_python(
        parents, 4, np.random.RandomState(3), mutation_count(30, 1, 5, op.fm)
    )
    assert np.array_equal(made[1], want[1])


def test_non_int64_block_takes_python_loop():
    op = AllocationMutation(P=16)
    parents = _parents(3, 30, op.P, 6)
    made = op.offspring(
        parents.astype(np.int32), 5, np.random.default_rng(8), 0, 5
    )
    want = op.offspring(parents, 5, np.random.default_rng(8), 0, 5)
    assert np.array_equal(made[0], want[0])
    assert np.array_equal(made[1], want[1])
    assert made[1].dtype == np.int64


def test_subclass_mutate_keeps_the_per_child_loop():
    """An operator overriding mutate(), like the annealing ablation's
    constant-width one, is called once per child, as before."""

    class ConstantWidth(AllocationMutation):
        def mutate(self, genome, rng, generation, total_generations):
            return super().mutate(genome, rng, 0, total_generations)

    parents = _parents(5, 39, 20, 7)
    made = ConstantWidth(P=20).offspring(
        parents, 10, np.random.default_rng(2), 4, 5
    )
    want = AllocationMutation(P=20)._offspring_python(
        parents, 10, np.random.default_rng(2), mutation_count(39, 0, 5, 0.33)
    )
    assert np.array_equal(made[0], want[0])
    assert np.array_equal(made[1], want[1])


def _assert_same_run(a, b):
    assert a.makespan == b.makespan
    assert np.array_equal(a.allocation, b.allocation)
    assert [
        (e.generation, e.best, e.mean, e.worst, e.evaluations)
        for e in a.log.entries
    ] == [
        (e.generation, e.best, e.mean, e.worst, e.evaluations)
        for e in b.log.entries
    ]


@pytest.mark.parametrize(
    "make, kwargs",
    [(emts5, {}), (emts10, {}), (emts5, {"islands": True})],
    ids=["emts5", "emts10", "islands"],
)
def test_whole_run_matches_python_loop(make, kwargs, monkeypatch):
    _native_or_skip()
    ptg = generate_fft(8, rng=5)
    native = make(**kwargs).schedule(ptg, grelon(), SyntheticModel(), rng=11)
    monkeypatch.setattr(mutation_module, "_native", None)
    oracle = make(**kwargs).schedule(ptg, grelon(), SyntheticModel(), rng=11)
    _assert_same_run(native, oracle)


def test_online_emts_rung_matches_python_loop(monkeypatch):
    _native_or_skip()
    ptg = generate_fft(8, rng=777)
    cluster = grelon()
    table = TimeTable.build(SyntheticModel(), ptg, cluster)
    V, P = ptg.num_tasks, cluster.num_processors
    state = dict(
        now=0.0,
        frontier=np.arange(V, dtype=np.int64),
        release=np.zeros(V),
        allocation=np.ones(V, dtype=np.int64),
        alive=np.arange(P, dtype=np.int64),
        avail=np.zeros(P),
    )
    policy = ReactionPolicy()

    def replan():
        return Rescheduler(ptg, table, policy, rng=3).reschedule(
            **state, remaining_budget=policy.budget_evaluations
        )

    native = replan()
    monkeypatch.setattr(mutation_module, "_native", None)
    oracle = replan()
    assert native.rung == oracle.rung == "emts"
    assert native.completion == oracle.completion
    assert np.array_equal(native.allocation, oracle.allocation)
    assert np.array_equal(native.start, oracle.start)


class _StopAfter:
    """Event-like flag set after ``n`` generation-boundary checks."""

    def __init__(self, n: int) -> None:
        self.n = n

    def is_set(self) -> bool:
        self.n -= 1
        return self.n < 0


def test_python_loop_checkpoint_resumes_natively(tmp_path, monkeypatch):
    _native_or_skip()
    ptg, cluster, model = generate_fft(4, rng=7), grelon(), SyntheticModel()
    baseline = emts5().schedule(ptg, cluster, model, rng=7)
    path = tmp_path / "run.ckpt"
    with monkeypatch.context() as patch:
        patch.setattr(mutation_module, "_native", None)
        partial = emts5().schedule(
            ptg, cluster, model, rng=7,
            checkpoint_path=path, stop_event=_StopAfter(2),
        )
    assert partial.interrupted
    assert mutation_module._native_offspring() is not None
    resumed = emts5().schedule(ptg, cluster, model, rng=7, resume_from=path)
    _assert_same_run(resumed, baseline)


def test_threads_with_own_generators_match_sequential_oracle():
    """The call releases the GIL: four threads on four generators, with
    frequent switches, make what the Python loop makes one by one."""
    _native_or_skip()
    op = AllocationMutation(P=64)
    parents = _parents(10, 95, op.P, 2)

    def run(seed, offspring):
        rng = np.random.default_rng(seed)
        blocks = [offspring(rng, u) for u in range(6) for _ in range(5)]
        return blocks, rng.bit_generator.state

    def native(rng, u):
        return op.offspring(parents, 20, rng, u, 5)

    def python(rng, u):
        return op._offspring_python(
            parents, 20, rng, mutation_count(95, u, 5, op.fm)
        )

    want = [run(seed, python) for seed in range(4)]
    got = [None] * 4

    def worker(i):
        got[i] = run(i, native)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (blocks, state), (want_blocks, want_state) in zip(got, want):
        assert state == want_state
        for made, expected in zip(blocks, want_blocks):
            assert np.array_equal(made[0], expected[0])
            assert np.array_equal(made[1], expected[1])


def test_first_offspring_while_another_thread_loads_stays_native(
    monkeypatch,
):
    """A service's two workers start together: one is still loading the
    library (for its kernel) when the other makes its first offspring.
    That call waits for the load instead of reading "no library" and
    switching the native path off for the rest of the process."""
    _native_or_skip()
    monkeypatch.setattr(_cscheduler, "_tried", False)
    monkeypatch.setattr(_cscheduler, "_ffi", None)
    monkeypatch.setattr(_cscheduler, "_lib", None)
    monkeypatch.setattr(mutation_module, "_native", mutation_module._UNCHECKED)
    entered, release = threading.Event(), threading.Event()
    dlopen = _cscheduler._dlopen_checked

    def held_dlopen(*args, **kwargs):
        entered.set()
        release.wait(timeout=10)
        return dlopen(*args, **kwargs)

    monkeypatch.setattr(_cscheduler, "_dlopen_checked", held_dlopen)
    op = AllocationMutation(P=20)
    parents = _parents(5, 23, op.P, 1)
    made = []
    loader = threading.Thread(target=_cscheduler.load)
    mutator = threading.Thread(
        target=lambda: made.append(
            op.offspring(parents, 6, np.random.default_rng(5), 0, 5)
        )
    )
    loader.start()
    try:
        assert entered.wait(timeout=10)
        mutator.start()
        mutator.join(timeout=0.2)
        assert mutator.is_alive(), "offspring did not wait for the load"
    finally:
        release.set()
        loader.join(timeout=30)
        if mutator.ident is not None:
            mutator.join(timeout=30)
    assert mutation_module._native is not None
    want = op._offspring_python(
        parents, 6, np.random.default_rng(5), mutation_count(23, 0, 5, op.fm)
    )
    assert np.array_equal(made[0][0], want[0])
    assert np.array_equal(made[0][1], want[1])


def test_missing_numpy_archive_keeps_kernel_and_falls_back(
    tmp_path, monkeypatch, caplog
):
    pytest.importorskip("cffi")
    monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
    monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path))
    monkeypatch.setattr(_cscheduler, "_tried", False)
    monkeypatch.setattr(_cscheduler, "_ffi", None)
    monkeypatch.setattr(_cscheduler, "_lib", None)
    monkeypatch.setattr(
        _cscheduler,
        "_npyrandom_archive",
        lambda: tmp_path / "missing" / "libnpyrandom.a",
    )
    monkeypatch.setattr(mutation_module, "_native", mutation_module._UNCHECKED)
    ffi, lib = _cscheduler.load()
    if lib is None:
        pytest.skip("no C compiler available")
    assert lib.schedule_makespan_batch is not None
    assert lib.cpa_allocate is not None
    with pytest.raises(AttributeError):
        lib.mutation_offspring

    op = AllocationMutation(P=20)
    parents = _parents(5, 23, op.P, 1)
    with caplog.at_level(logging.WARNING, "repro.core.mutation"):
        made = [
            op.offspring(parents, 8, np.random.default_rng(3), u, 5)
            for u in (0, 1)
        ]
    warnings = [r for r in caplog.records if "sampler archive" in r.message]
    assert len(warnings) == 1
    assert mutation_module._native is None
    for u, block in zip((0, 1), made):
        m = mutation_count(23, u, 5, op.fm)
        want = op._offspring_python(parents, 8, np.random.default_rng(3), m)
        assert np.array_equal(block[1], want[1])


def test_first_use_check_switches_native_off_on_difference(
    monkeypatch, caplog
):
    _native_or_skip()
    real = AllocationMutation._offspring_python

    def drifted(self, parents, count, rng, m):
        """A Python loop that no longer agrees with the C code, as a
        numpy release changing Generator.choice would make it."""
        index, children = real(self, parents, count, rng, m)
        children[:, 0] = 1
        return index, children

    monkeypatch.setattr(AllocationMutation, "_offspring_python", drifted)
    monkeypatch.setattr(mutation_module, "_native", mutation_module._UNCHECKED)
    op = AllocationMutation(P=20)
    parents = _parents(5, 23, op.P, 1)
    with caplog.at_level(logging.WARNING, "repro.core.mutation"):
        made = op.offspring(parents, 6, np.random.default_rng(5), 0, 5)
    assert mutation_module._native is None
    assert any(
        "differ from the Python loop" in r.message for r in caplog.records
    )
    assert np.all(made[1][:, 0] == 1)
