"""The shared backoff helper and the named crash-point machinery."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.util import (
    CRASH_ENV_VAR,
    CRASH_EXIT_CODE,
    KNOWN_CRASH_POINTS,
    crash_point,
    decorrelated_jitter,
    exponential_delay,
    reset_crash_counts,
)


class TestExponentialDelay:
    def test_classic_ladder(self):
        assert exponential_delay(0.5, 1) == 0.5
        assert exponential_delay(0.5, 2) == 1.0
        assert exponential_delay(0.5, 3) == 2.0
        assert exponential_delay(0.5, 4) == 4.0

    def test_custom_factor(self):
        assert exponential_delay(1.0, 3, factor=3.0) == 9.0

    def test_cap_clamps(self):
        assert exponential_delay(1.0, 10, cap=5.0) == 5.0
        assert exponential_delay(1.0, 1, cap=5.0) == 1.0

    def test_zero_base_disables_sleeping(self):
        assert exponential_delay(0.0, 1) == 0.0
        assert exponential_delay(-1.0, 7) == 0.0

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            exponential_delay(1.0, 0)

    def test_bit_identical_to_legacy_expression(self):
        # The three migrated call sites used exactly this expression;
        # a reordered multiply would change online simulated-time
        # traces, so the extraction must preserve it to the bit.
        for base in (0.05, 0.1, 1.5, 2.0):
            for attempt in range(1, 12):
                for factor in (1.5, 2.0, 3.0):
                    assert exponential_delay(
                        base, attempt, factor=factor
                    ) == base * factor ** (attempt - 1)


class TestDecorrelatedJitter:
    def test_bounds(self):
        import random

        rng = random.Random(3)
        previous = 0.1
        for _ in range(200):
            delay = decorrelated_jitter(rng, previous, 0.1, 2.0)
            assert 0.1 <= delay <= 2.0
            previous = delay

    def test_seeded_stream_is_reproducible(self):
        import random

        a = [
            decorrelated_jitter(random.Random(11), 0.1, 0.1, 5.0)
            for _ in range(3)
        ]
        b = [
            decorrelated_jitter(random.Random(11), 0.1, 0.1, 5.0)
            for _ in range(3)
        ]
        assert a == b

    def test_zero_base_disables(self):
        import random

        assert decorrelated_jitter(random.Random(0), 1.0, 0.0, 5.0) == 0.0


class TestCrashPoint:
    def setup_method(self):
        reset_crash_counts()
        os.environ.pop(CRASH_ENV_VAR, None)

    def teardown_method(self):
        reset_crash_counts()
        os.environ.pop(CRASH_ENV_VAR, None)

    def test_unarmed_is_a_noop(self):
        for name in KNOWN_CRASH_POINTS:
            crash_point(name)  # must not die

    def test_armed_for_a_different_point_is_a_noop(self):
        os.environ[CRASH_ENV_VAR] = "mid-checkpoint"
        crash_point("post-enqueue")  # must not die

    def test_detonation_exits_with_the_crash_code(self):
        code = (
            "from repro.util import crash_point, CRASH_ENV_VAR\n"
            "import os\n"
            "os.environ[CRASH_ENV_VAR] = 'post-enqueue'\n"
            "crash_point('post-enqueue')\n"
            "print('survived')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == CRASH_EXIT_CODE
        assert "survived" not in proc.stdout

    def test_hit_count_detonates_on_nth_crossing(self):
        code = (
            "from repro.util import crash_point, CRASH_ENV_VAR\n"
            "import os\n"
            "os.environ[CRASH_ENV_VAR] = 'mid-checkpoint:3'\n"
            "for i in range(10):\n"
            "    print('crossing', i, flush=True)\n"
            "    crash_point('mid-checkpoint')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == CRASH_EXIT_CODE
        crossings = [
            line
            for line in proc.stdout.splitlines()
            if line.startswith("crossing")
        ]
        assert len(crossings) == 3  # died during the third crossing
