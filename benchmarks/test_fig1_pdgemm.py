"""E1 / Figure 1 — PDGEMM-like non-monotone execution times.

Regenerates the two timing curves (matrix sizes 1024 and 2048, 1-32
processors), asserts the paper's qualitative point — execution time is
NOT monotonically decreasing in the processor count — and benchmarks the
model evaluation itself.
"""

from repro.experiments.figures import generate_figure1
from repro.timemodels import pdgemm_time

from .conftest import write_result


def test_figure1_curves(benchmark):
    fig = benchmark(generate_figure1)

    # the headline property of the paper's Figure 1
    assert fig.non_monotone(1024)
    assert fig.non_monotone(2048)

    # time still broadly decreases: using the whole range beats serial
    for n in fig.matrix_sizes:
        assert fig.times[n][-1] < fig.times[n][0]

    # spikes occur at degenerate-grid counts (primes)
    assert set(fig.spikes(2048)) & {5, 7, 11, 13, 17, 19}

    write_result("figure1.txt", fig.render())


def test_pdgemm_model_kernel(benchmark):
    """Throughput of one model evaluation (used inside time tables)."""

    def evaluate_curve():
        return [pdgemm_time(2048, p) for p in range(1, 33)]

    times = benchmark(evaluate_curve)
    assert all(t > 0 for t in times)
