"""RetryPolicy / RetryingServiceClient unit tests (no real server).

The resilient client is exercised against a scripted fake inner client
with injected ``sleep``/``clock``, so every schedule assertion is exact
and instant.  Wire-level behaviour is covered by the chaos-proxy tests.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ServiceError
from repro.service import (
    JobTimeout,
    QueueFullError,
    RetryingServiceClient,
    RetryPolicy,
    ServiceClient,
    ServiceUnavailable,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class ScriptedClient:
    """Inner client whose ``submit`` pops one scripted outcome per call."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def submit(self, doc, wait=None):
        self.calls.append(dict(doc))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def get_job(self, job_id):
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def healthz(self):
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def make_client(outcomes, policy=None):
    clock = FakeClock()
    inner = ScriptedClient(outcomes)
    client = RetryingServiceClient(
        client=inner,
        policy=policy or RetryPolicy(seed=7),
        sleep=clock.sleep,
        clock=clock,
    )
    return client, inner, clock


OK = {"job": {"id": "job-1", "state": "done"}}


class TestRetryPolicy:
    def test_defaults_are_sane(self):
        p = RetryPolicy()
        assert p.max_attempts >= 2
        assert 0 < p.base <= p.cap

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base": -1.0},
            {"base": 3.0, "cap": 1.0},
            {"deadline": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_ledger_classifies_by_most_derived_type(self):
        p = RetryPolicy()
        assert p.retryable(ServiceUnavailable("down"))
        assert p.retryable(QueueFullError("full"))
        assert p.retryable(ConnectionResetError("rst"))
        assert not p.retryable(JobTimeout("slow"))
        # the BASE ServiceError (400/404/409 shapes) is terminal even
        # though two of its subclasses are retryable
        assert not p.retryable(ServiceError("bad", status=400))
        # unlisted exception types are never retried
        assert not p.retryable(ValueError("nope"))

    def test_retry_after_is_a_floor_capped_at_cap(self):
        import random

        p = RetryPolicy(base=0.01, cap=1.0, seed=1)
        rng = random.Random(1)
        assert p.next_delay(rng, 0.01, 0.5) >= 0.5
        assert p.next_delay(rng, 0.01, 99.0) == 1.0  # capped

    def test_retry_after_ignored_when_disabled(self):
        import random

        p = RetryPolicy(base=0.01, cap=1.0, honor_retry_after=False)
        delay = p.next_delay(random.Random(2), 0.01, 50.0)
        assert delay < 1.0


class TestRetryLoop:
    def test_transient_failures_then_success(self):
        client, inner, clock = make_client(
            [ServiceUnavailable("down"), QueueFullError("full"), OK]
        )
        doc = client.submit({"seed": 1})
        assert doc == OK
        assert len(inner.calls) == 3
        assert client.stats.retries == 2
        assert clock.now > 0  # it actually backed off

    def test_non_retryable_error_is_raised_immediately(self):
        client, inner, _ = make_client(
            [ServiceError("bad request", status=400), OK]
        )
        with pytest.raises(ServiceError) as err:
            client.submit({"seed": 1})
        assert err.value.status == 400
        assert len(inner.calls) == 1

    def test_attempts_exhausted_reraises_last_error(self):
        policy = RetryPolicy(max_attempts=3, seed=5)
        client, inner, _ = make_client(
            [ServiceUnavailable(f"down {i}") for i in range(5)],
            policy=policy,
        )
        with pytest.raises(ServiceUnavailable) as err:
            client.submit({"seed": 1})
        assert "down 2" in str(err.value)
        assert len(inner.calls) == 3

    def test_deadline_stops_retrying(self):
        policy = RetryPolicy(
            max_attempts=100, base=1.0, cap=1.0, deadline=2.5, seed=3
        )
        client, inner, clock = make_client(
            [ServiceUnavailable("down")] * 100, policy=policy
        )
        with pytest.raises(ServiceUnavailable):
            client.submit({"seed": 1})
        # every sleep is exactly 1s (base == cap): two fit under the
        # 2.5s deadline, the third would cross it
        assert len(inner.calls) == 3
        assert clock.now <= 2.5

    def test_server_retry_after_hint_floors_the_sleep(self):
        policy = RetryPolicy(base=0.01, cap=10.0, max_attempts=2, seed=1)
        client, _, clock = make_client(
            [QueueFullError("full", retry_after=5.0), OK], policy=policy
        )
        client.submit({"seed": 1})
        assert clock.now >= 5.0

    def test_seeded_schedules_are_reproducible(self):
        delays = []
        for _ in range(2):
            policy = RetryPolicy(max_attempts=4, seed=99)
            client, _, clock = make_client(
                [ServiceUnavailable("x")] * 3 + [OK], policy=policy
            )
            client.submit({})
            delays.append(clock.now)
        assert delays[0] == delays[1]

    def test_get_job_and_healthz_are_retried(self):
        client, _, _ = make_client(
            [ServiceUnavailable("x"), OK, ServiceUnavailable("x"), OK]
        )
        assert client.get_job("job-1") == OK
        assert client.healthz() == OK


class HoldingServer:
    """A server that holds every ``?wait=`` POST for its whole wait on
    the fake clock and never finishes the job."""

    RUNNING = {"job": {"id": "job-1", "state": "running"}}

    def __init__(self, clock):
        self.clock = clock
        self.polls = 0

    def submit(self, doc, wait=None):
        self.clock.now += wait or 0.0
        return self.RUNNING

    def get_job(self, job_id):
        self.polls += 1
        return self.RUNNING


def _holding_retrying_client(clock, server):
    return RetryingServiceClient(
        client=server,
        policy=RetryPolicy(seed=7),
        sleep=clock.sleep,
        clock=clock,
    )


def _holding_plain_client(clock, server):
    client = ServiceClient()
    client.submit = server.submit
    client.get_job = server.get_job
    client._sleep = clock.sleep
    client._clock = clock
    return client


class TestBlockingCalls:
    """``schedule`` and ``wait_for``, one loop for both clients, keep
    to the caller's timeout on the fake clock."""

    @pytest.mark.parametrize(
        "make",
        [_holding_retrying_client, _holding_plain_client],
        ids=["retrying", "plain"],
    )
    @pytest.mark.parametrize("timeout", [10.0, 45.0])
    def test_schedule_times_out_within_its_timeout(self, make, timeout):
        clock = FakeClock()
        server = HoldingServer(clock)
        client = make(clock, server)
        with pytest.raises(JobTimeout, match=f"after {timeout:g}s"):
            client.schedule({"seed": 1}, timeout=timeout, poll_interval=1.0)
        # the server's hold counts against the timeout: polling stops
        # at the first poll past it, not a whole timeout later
        assert timeout <= clock.now <= timeout + 1.0
        assert server.polls >= 1

    def test_wait_for_polls_until_its_timeout(self):
        clock = FakeClock()
        server = HoldingServer(clock)
        client = _holding_retrying_client(clock, server)
        with pytest.raises(JobTimeout, match="after 3s"):
            client.wait_for("job-1", timeout=3.0, poll_interval=1.0)
        assert clock.now == 3.0
        assert server.polls == 4

    def test_a_finished_job_returns_at_once(self):
        client, inner, clock = make_client([OK])
        assert client.schedule({"seed": 1}, timeout=10.0) == OK
        assert clock.now == 0.0


class TestIdempotencyKeyInjection:
    def test_key_is_injected_and_stable_across_retries(self):
        client, inner, _ = make_client(
            [ServiceUnavailable("x"), ServiceUnavailable("x"), OK]
        )
        client.submit({"seed": 1})
        keys = {c["idempotency_key"] for c in inner.calls}
        assert len(keys) == 1  # every retry reuses the SAME key
        key = keys.pop()
        assert key.startswith("idem-") and len(key) > 10

    def test_fresh_submissions_get_fresh_keys(self):
        client, inner, _ = make_client([OK, OK])
        client.submit({"seed": 1})
        client.submit({"seed": 2})
        assert (
            inner.calls[0]["idempotency_key"]
            != inner.calls[1]["idempotency_key"]
        )

    def test_explicit_key_is_preserved(self):
        client, inner, _ = make_client([OK])
        client.submit({"seed": 1, "idempotency_key": "idem-mine"})
        assert inner.calls[0]["idempotency_key"] == "idem-mine"

    def test_caller_document_is_not_mutated(self):
        client, _, _ = make_client([OK])
        doc = {"seed": 1}
        client.submit(doc)
        assert "idempotency_key" not in doc

    def test_deduplicated_responses_are_counted(self):
        deduped = {
            "job": {"id": "job-1", "state": "done"},
            "deduplicated": True,
        }
        client, _, _ = make_client([deduped])
        client.submit({"seed": 1})
        assert client.stats.deduplicated == 1


class TestRetryAfterHeaderHardening:
    """Satellite: ``ServiceClient._retry_after`` never trusts the wire."""

    @pytest.mark.parametrize(
        "value",
        [
            "not-a-number",
            "",
            "-1",
            "-0.5",
            "nan",
            "inf",
            "-inf",
            "1e400",  # overflows to inf
            "10 seconds",
            "Wed, 21 Oct 2015 07:28:00 GMT",  # http-date form: no hint
        ],
    )
    def test_malformed_values_degrade_to_none(self, value):
        assert (
            ServiceClient._retry_after({"retry-after": value}) is None
        )

    def test_missing_header_is_none(self):
        assert ServiceClient._retry_after({}) is None

    @pytest.mark.parametrize(
        "value,expected", [("0", 0.0), ("1.5", 1.5), ("30", 30.0)]
    )
    def test_valid_values_parse(self, value, expected):
        assert (
            ServiceClient._retry_after({"retry-after": value}) == expected
        )
