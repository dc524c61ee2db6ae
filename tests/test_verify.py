"""Tests for :mod:`repro.verify` — verifier, differential replay, and
the online verifying evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EMTS, EMTSConfig, emts5
from repro.core.evaluator import create_evaluator
from repro.exceptions import ConfigurationError, VerificationError
from repro.mapping import map_allocations
from repro.mapping.kernel import kernel_for
from repro.testing.chaos import ChaosEvaluator, ChaosPlan
from repro.verify import (
    VERIFY_MODES,
    DifferentialReport,
    ScheduleVerifier,
    VerifyingEvaluator,
    differential_check,
)


@pytest.fixture
def alloc(fft8_ptg, synthetic_table):
    gen = np.random.default_rng(99)
    return gen.integers(
        1, synthetic_table.num_processors + 1, size=fft8_ptg.num_tasks
    )


class TestScheduleVerifier:
    def test_valid_schedule_passes(self, fft8_ptg, synthetic_table, alloc):
        schedule = map_allocations(fft8_ptg, synthetic_table, alloc)
        report = ScheduleVerifier(fft8_ptg, synthetic_table).verify(
            schedule, expected_makespan=schedule.makespan
        )
        assert report.tasks == fft8_ptg.num_tasks
        assert report.edges_checked == fft8_ptg.num_edges
        assert report.durations_checked
        assert report.makespan == schedule.makespan
        assert "verified" in str(report)

    def test_without_table_needs_cluster(self, fft8_ptg, grelon_cluster):
        v = ScheduleVerifier(fft8_ptg, cluster=grelon_cluster)
        assert v.table is None
        with pytest.raises(VerificationError):
            ScheduleVerifier(fft8_ptg)

    def test_structural_only_without_table(
        self, fft8_ptg, synthetic_table, grelon_cluster, alloc
    ):
        schedule = map_allocations(fft8_ptg, synthetic_table, alloc)
        report = ScheduleVerifier(
            fft8_ptg, cluster=grelon_cluster
        ).verify(schedule)
        assert not report.durations_checked

    def test_wrong_graph_rejected(
        self, fft8_ptg, diamond_ptg, synthetic_table, alloc
    ):
        schedule = map_allocations(fft8_ptg, synthetic_table, alloc)
        with pytest.raises(VerificationError) as err:
            ScheduleVerifier(
                diamond_ptg, cluster=synthetic_table.cluster
            ).verify(schedule)
        assert err.value.kind == "graph-mismatch"

    def test_wrong_cluster_rejected(
        self, fft8_ptg, synthetic_table, chti_cluster, alloc
    ):
        schedule = map_allocations(fft8_ptg, synthetic_table, alloc)
        with pytest.raises(VerificationError) as err:
            ScheduleVerifier(fft8_ptg, cluster=chti_cluster).verify(
                schedule
            )
        assert err.value.kind == "platform-mismatch"

    def test_wrong_reported_makespan(
        self, fft8_ptg, synthetic_table, alloc
    ):
        schedule = map_allocations(fft8_ptg, synthetic_table, alloc)
        with pytest.raises(VerificationError) as err:
            ScheduleVerifier(fft8_ptg, synthetic_table).verify(
                schedule, expected_makespan=schedule.makespan * 1.001
            )
        assert err.value.kind == "makespan-mismatch"


class TestDifferentialCheck:
    def test_all_engines_agree(self, fft8_ptg, synthetic_table, alloc):
        report = differential_check(fft8_ptg, synthetic_table, alloc)
        assert isinstance(report, DifferentialReport)
        assert report.invariants_checked
        assert {"reference", "simulator"} <= set(report.engines)
        if kernel_for(synthetic_table).has_native:
            assert "kernel-c" in report.engines
        assert report.makespan == report.engines["reference"]
        assert "agree" in str(report)

    def test_expected_matches(self, fft8_ptg, synthetic_table, alloc):
        kernel = kernel_for(synthetic_table)
        ms = kernel.makespan(alloc)
        report = differential_check(
            fft8_ptg, synthetic_table, alloc, expected=ms
        )
        assert report.engines["reported"] == ms

    def test_wrong_expected_diverges(
        self, fft8_ptg, synthetic_table, alloc
    ):
        kernel = kernel_for(synthetic_table)
        ms = kernel.makespan(alloc)
        with pytest.raises(VerificationError) as err:
            differential_check(
                fft8_ptg, synthetic_table, alloc, expected=ms * 1.01
            )
        assert err.value.kind == "engine-divergence"

    def test_nan_expected_diverges(
        self, fft8_ptg, synthetic_table, alloc
    ):
        with pytest.raises(VerificationError) as err:
            differential_check(
                fft8_ptg, synthetic_table, alloc, expected=float("nan")
            )
        assert err.value.kind == "engine-divergence"


class TestVerifyingEvaluator:
    def test_modes(self):
        assert VERIFY_MODES == ("off", "sample", "full")

    def test_rejects_bad_mode(self, fft8_ptg, synthetic_table):
        inner = create_evaluator(fft8_ptg, synthetic_table)
        with pytest.raises(ConfigurationError):
            VerifyingEvaluator(
                inner, fft8_ptg, synthetic_table, mode="off"
            )
        with pytest.raises(ConfigurationError):
            VerifyingEvaluator(
                inner,
                fft8_ptg,
                synthetic_table,
                mode="sample",
                sample_interval=0,
            )

    def test_full_mode_verifies_everything(
        self, fft8_ptg, synthetic_table, alloc
    ):
        with create_evaluator(
            fft8_ptg, synthetic_table, verify="full"
        ) as ev:
            assert isinstance(ev, VerifyingEvaluator)
            genomes = [alloc, np.maximum(alloc - 1, 1)]
            values = ev.evaluate(genomes)
            assert ev.verified == 2
            assert values[0] == kernel_for(synthetic_table).makespan(
                alloc
            )

    def test_sample_mode_samples_first_batch(
        self, fft8_ptg, synthetic_table, alloc
    ):
        with create_evaluator(
            fft8_ptg, synthetic_table, verify="sample", verify_interval=1000
        ) as ev:
            ev.evaluate([alloc] * 5)
            assert ev.verified == 1  # first batch always spot-checked
            ev.evaluate([alloc] * 5)
            assert ev.verified == 1  # budget not yet exhausted

    def test_sample_interval_counts_genomes(
        self, fft8_ptg, synthetic_table, alloc
    ):
        with create_evaluator(
            fft8_ptg, synthetic_table, verify="sample", verify_interval=6
        ) as ev:
            ev.evaluate([alloc] * 5)  # verifies 1, budget = 6
            ev.evaluate([alloc] * 5)  # budget 1 left
            assert ev.verified == 1
            ev.evaluate([alloc] * 5)  # budget exhausted -> verify again
            assert ev.verified == 2

    def test_nan_detected_in_every_mode(
        self, fft8_ptg, synthetic_table, alloc
    ):
        for mode in ("sample", "full"):
            inner = create_evaluator(fft8_ptg, synthetic_table)
            chaotic = ChaosEvaluator(
                inner, ChaosPlan(nan_batches=frozenset({0}))
            )
            ev = VerifyingEvaluator(
                chaotic, fft8_ptg, synthetic_table, mode=mode
            )
            with pytest.raises(VerificationError) as err:
                ev.evaluate([alloc])
            assert err.value.kind == "engine-divergence"
            assert ev.divergences == 1
            ev.close()

    def test_rejections_skipped(self, fft8_ptg, synthetic_table, alloc):
        with create_evaluator(
            fft8_ptg, synthetic_table, verify="full"
        ) as ev:
            values = ev.evaluate([alloc], abort_above=1e-9)
            assert values[0] == float("inf")
            assert ev.verified == 0

    def test_delegates_interface(self, fft8_ptg, synthetic_table, alloc):
        with create_evaluator(
            fft8_ptg, synthetic_table, verify="full"
        ) as ev:
            assert ev.stats is ev.inner.stats  # verifier -> backend
            ev([alloc][0])
            assert ev.stats.evaluations >= 1

    def test_create_evaluator_rejects_bad_verify(
        self, fft8_ptg, synthetic_table
    ):
        with pytest.raises(ConfigurationError):
            create_evaluator(fft8_ptg, synthetic_table, verify="maybe")

    def test_off_adds_no_wrapper(self, fft8_ptg, synthetic_table):
        ev = create_evaluator(fft8_ptg, synthetic_table, verify="off")
        assert not isinstance(ev, VerifyingEvaluator)
        ev.close()


class TestChaosCorruptionDetection:
    """The chaos kernel-corruption fault must not survive verification."""

    def test_corruption_detected_full(
        self, fft8_ptg, synthetic_table, alloc
    ):
        inner = create_evaluator(fft8_ptg, synthetic_table)
        chaotic = ChaosEvaluator(
            inner, ChaosPlan(corrupt_batches=frozenset({0}))
        )
        ev = VerifyingEvaluator(
            chaotic, fft8_ptg, synthetic_table, mode="full"
        )
        with pytest.raises(VerificationError) as err:
            ev.evaluate([alloc])
        assert err.value.kind == "engine-divergence"
        assert chaotic.faults_injected == 1
        ev.close()

    def test_corruption_detected_by_sampling(
        self, fft8_ptg, synthetic_table, alloc
    ):
        inner = create_evaluator(fft8_ptg, synthetic_table)
        chaotic = ChaosEvaluator(
            inner, ChaosPlan(corrupt_batches=frozenset({0}))
        )
        ev = VerifyingEvaluator(
            chaotic, fft8_ptg, synthetic_table, mode="sample"
        )
        # the sampler always spot-checks the first batch
        with pytest.raises(VerificationError):
            ev.evaluate([alloc])
        ev.close()

    def test_corruption_passes_unverified(
        self, fft8_ptg, synthetic_table, alloc
    ):
        # sanity: without verification the corrupted value sails through
        inner = create_evaluator(fft8_ptg, synthetic_table)
        chaotic = ChaosEvaluator(
            inner,
            ChaosPlan(
                corrupt_batches=frozenset({0}), corrupt_factor=1.01
            ),
        )
        honest = kernel_for(synthetic_table).makespan(alloc)
        values = chaotic.evaluate([alloc])
        assert values[0] == pytest.approx(honest * 1.01)
        chaotic.close()


class TestEMTSIntegration:
    def test_config_validates_verify(self):
        with pytest.raises(ConfigurationError):
            EMTSConfig(verify="everything")
        assert EMTSConfig(verify="sample").verify == "sample"

    def test_verified_run_is_bit_identical(
        self, fft8_ptg, grelon_cluster, synthetic_table
    ):
        cfg = emts5().config.with_updates(generations=2)
        plain = EMTS(cfg).schedule(
            fft8_ptg, grelon_cluster, synthetic_table, rng=11
        )
        checked = EMTS(cfg.with_updates(verify="full")).schedule(
            fft8_ptg, grelon_cluster, synthetic_table, rng=11
        )
        assert checked.makespan == plain.makespan
        assert np.array_equal(checked.allocation, plain.allocation)

    def test_chaos_corruption_fails_emts_run(
        self, fft8_ptg, grelon_cluster, synthetic_table
    ):
        cfg = emts5().config.with_updates(
            generations=2, verify="full"
        )

        def wrapper(ev):
            # corrupt UNDER the verifier: chaos wraps the backend, the
            # verifying evaluator wraps chaos
            return VerifyingEvaluator(
                ChaosEvaluator(
                    ev.inner,
                    ChaosPlan(corrupt_batches=frozenset({1})),
                ),
                fft8_ptg,
                synthetic_table,
                mode="full",
            )

        with pytest.raises(VerificationError):
            EMTS(cfg).schedule(
                fft8_ptg,
                grelon_cluster,
                synthetic_table,
                rng=11,
                evaluator_wrapper=wrapper,
            )
