"""Ablation benchmarks for EMTS's design choices (DESIGN.md Section 6).

Each ablation removes one design element the paper argues for.  The
paper designed EMTS to *refine heuristic solutions quickly* ("the main
purpose of our experiments is to reveal whether an EA can tune given
schedules in a short amount of time"), so the directional assertions are
made in that design-center regime — Model 1 on Chti, where the seeds
are strong and small-step refinement is the right move.  Each ablation
is additionally *measured* in the exploration regime (Model 2 on
Grelon, where the CPA-family seeds stall at tiny allocations) and the
outcome recorded in results/: there, exploration-heavy variants can win
at the paper's tiny 5-generation budget — an instructive finding the
paper does not evaluate, discussed in EXPERIMENTS.md.

Ablations:

* **seeding** — heuristic seeds vs random initial populations
  (Section III-B);
* **mutation distribution** — Eq. 1 small-step-biased mutation vs
  uniform resampling (Section III-D);
* **mutation-count annealing** — the (1 - u/U) schedule vs a constant
  count (Section III-C);
* **plus vs comma selection** — plus conserves the best solution
  (Section V);
* **rejection strategy** — the future-work mapping early-abort, on by
  default under plus selection, must be outcome-identical to mapping
  every offspring to the end while saving time.
"""

import numpy as np
import pytest

from repro.core import EMTS, EMTSConfig, AllocationMutation, emts5, emts10
from repro.core.seeding import seed_population
from repro.ea import EvolutionStrategy, UniformIntegerMutation
from repro.mapping import makespan_of
from repro.obs import MetricsRegistry
from repro.platform import chti, grelon
from repro.testing import Unbounded
from repro.timemodels import AmdahlModel, SyntheticModel, TimeTable
from repro.workloads import DaggenParams, generate_daggen

from .conftest import BENCH_SEED, write_result


def _problems(model, cluster, count=4):
    out = []
    for seed in range(count):
        ptg = generate_daggen(
            DaggenParams(
                num_tasks=50,
                width=0.5,
                regularity=0.2,
                density=0.5,
                jump=2,
            ),
            rng=seed,
        )
        out.append((ptg, TimeTable.build(model, ptg, cluster)))
    return out


@pytest.fixture(scope="module")
def refinement_problems():
    """The paper's design-center regime: strong seeds (Model 1, Chti)."""
    return _problems(AmdahlModel(), chti())


@pytest.fixture(scope="module")
def exploration_problems():
    """Stalled seeds (Model 2, Grelon): measured, not asserted."""
    return _problems(SyntheticModel(), grelon())


def _evolve(ptg, table, mutation=None, random_seeds=False, gens=5):
    """One (5+25)-EA run with configurable operator/initialization."""
    rng = np.random.default_rng(BENCH_SEED)
    seed_op = AllocationMutation(P=table.num_processors)
    initial, _ = seed_population(
        ptg,
        table,
        heuristics=("mcpa", "hcpa", "delta-critical"),
        population_size=5,
        mutation=seed_op,
        rng=rng,
        random_seeds=random_seeds,
    )
    strategy = EvolutionStrategy(
        mu=5, lam=25, mutation=mutation or seed_op
    )
    return strategy.evolve(
        initial,
        lambda g: makespan_of(ptg, table, g),
        rng=rng,
        total_generations=gens,
    ).best_fitness


def _mean(problems, run):
    return float(np.mean([run(ptg, tab) for ptg, tab in problems]))


class ConstantCountMutation(AllocationMutation):
    """Eq. 1 steps but always at the generation-0 mutation width."""

    def mutate(self, genome, rng, generation, total_generations):
        return super().mutate(genome, rng, 0, total_generations)


def test_ablation_seeding(
    benchmark, refinement_problems, exploration_problems
):
    """Heuristic seeding beats random initialization where the seeds
    are good; both regimes are recorded."""

    def seeded(ptg, tab):
        return _evolve(ptg, tab)

    def unseeded(ptg, tab):
        return _evolve(ptg, tab, random_seeds=True)

    ref_seeded = benchmark.pedantic(
        lambda: _mean(refinement_problems, seeded),
        rounds=1,
        iterations=1,
    )
    ref_random = _mean(refinement_problems, unseeded)
    exp_seeded = _mean(exploration_problems, seeded)
    exp_random = _mean(exploration_problems, unseeded)

    # design-center claim: seeds help where heuristics are strong
    assert ref_seeded <= ref_random * 1.02

    write_result(
        "ablation_seeding.txt",
        "refinement regime (model1/chti):\n"
        f"  seeded {ref_seeded:.4f}  random {ref_random:.4f}  "
        f"(random/seeded = {ref_random / ref_seeded:.3f})\n"
        "exploration regime (model2/grelon):\n"
        f"  seeded {exp_seeded:.4f}  random {exp_random:.4f}  "
        f"(random/seeded = {exp_random / exp_seeded:.3f})\n",
    )


def test_ablation_mutation_operator(
    benchmark, refinement_problems, exploration_problems
):
    """Eq. 1's small-step bias beats uniform resampling when refining
    good seeds."""

    def eq1(ptg, tab):
        return _evolve(
            ptg, tab, AllocationMutation(P=tab.num_processors)
        )

    def uniform(ptg, tab):
        return _evolve(
            ptg,
            tab,
            UniformIntegerMutation(
                low=1, high=tab.num_processors, rate=0.33
            ),
        )

    ref_eq1 = benchmark.pedantic(
        lambda: _mean(refinement_problems, eq1),
        rounds=1,
        iterations=1,
    )
    ref_uniform = _mean(refinement_problems, uniform)
    exp_eq1 = _mean(exploration_problems, eq1)
    exp_uniform = _mean(exploration_problems, uniform)

    assert ref_eq1 <= ref_uniform * 1.02

    write_result(
        "ablation_mutation_op.txt",
        "refinement regime (model1/chti):\n"
        f"  eq1 {ref_eq1:.4f}  uniform {ref_uniform:.4f}\n"
        "exploration regime (model2/grelon):\n"
        f"  eq1 {exp_eq1:.4f}  uniform {exp_uniform:.4f}\n",
    )


def test_ablation_annealing(
    benchmark, refinement_problems, exploration_problems
):
    """The (1 - u/U) annealed mutation count vs a constant count."""

    def annealed(ptg, tab):
        return _evolve(
            ptg, tab, AllocationMutation(P=tab.num_processors)
        )

    def constant(ptg, tab):
        return _evolve(
            ptg, tab, ConstantCountMutation(P=tab.num_processors)
        )

    ref_annealed = benchmark.pedantic(
        lambda: _mean(refinement_problems, annealed),
        rounds=1,
        iterations=1,
    )
    ref_constant = _mean(refinement_problems, constant)
    exp_annealed = _mean(exploration_problems, annealed)
    exp_constant = _mean(exploration_problems, constant)

    assert ref_annealed <= ref_constant * 1.03

    write_result(
        "ablation_annealing.txt",
        "refinement regime (model1/chti):\n"
        f"  annealed {ref_annealed:.4f}  constant {ref_constant:.4f}\n"
        "exploration regime (model2/grelon):\n"
        f"  annealed {exp_annealed:.4f}  constant {exp_constant:.4f}\n",
    )


def test_ablation_selection(benchmark, exploration_problems):
    """Plus selection never loses to the seeds; comma selection can."""
    ptg, tab = exploration_problems[0]
    cluster = grelon()

    def run(selection):
        cfg = EMTSConfig(
            mu=5, lam=25, generations=5, selection=selection
        )
        return EMTS(cfg).schedule(ptg, cluster, tab, rng=BENCH_SEED)

    plus_result = benchmark.pedantic(
        lambda: run("plus"), rounds=1, iterations=1
    )
    comma_result = run("comma")

    best_seed = min(plus_result.seed_makespans.values())
    assert plus_result.makespan <= best_seed + 1e-9

    write_result(
        "ablation_selection.txt",
        f"best seed makespan: {best_seed:.4f}\n"
        f"plus  selection:    {plus_result.makespan:.4f}\n"
        f"comma selection:    {comma_result.makespan:.4f}\n",
    )


def test_ablation_rejection(benchmark, exploration_problems):
    """The mapper early-abort is outcome-identical (same makespan AND
    same allocation vector) while skipping provably-useless mappings.
    The reference maps every offspring to the end: its evaluator drops
    the bound the strategy hands each batch."""
    cluster = grelon()

    def best_of_5(make, ptg, tab, **kwargs):
        """The fastest of five identical runs (the first also pays the
        library load and the kernel build)."""
        runs = [
            make().schedule(ptg, cluster, tab, rng=BENCH_SEED, **kwargs)
            for _ in range(5)
        ]
        return min(runs, key=lambda r: r.elapsed_seconds)

    lines = []
    for name, make in (("emts5", emts5), ("emts10", emts10)):
        for i, (ptg, tab) in enumerate(exploration_problems):
            plain = best_of_5(make, ptg, tab, evaluator_wrapper=Unbounded)
            fast = best_of_5(make, ptg, tab)
            assert fast.makespan == plain.makespan
            assert np.array_equal(fast.allocation, plain.allocation)
            metrics = MetricsRegistry()
            make().schedule(
                ptg, cluster, tab, rng=BENCH_SEED, metrics=metrics
            )
            offspring = fast.evaluations - fast.log.entries[0].evaluations
            rejected = (
                metrics.snapshot()
                .get("evaluation.rejected", {})
                .get("value", 0)
            )
            lines.append(
                f"{name} problem {i}: "
                f"plain {plain.elapsed_seconds * 1e3:.2f} ms  "
                f"rejection {fast.elapsed_seconds * 1e3:.2f} ms  "
                f"rejected {int(rejected)}/{offspring} offspring"
            )

    ptg, tab = exploration_problems[0]
    benchmark.pedantic(
        lambda: emts5().schedule(ptg, cluster, tab, rng=BENCH_SEED),
        rounds=2,
        iterations=1,
    )
    write_result("ablation_rejection.txt", "\n".join(lines) + "\n")
