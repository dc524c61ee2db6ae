"""The two service workloads.

Each runs :data:`CLIENTS` client threads, each on its own keep-alive
HTTP/1.1 connection, against a ``repro-emts serve --spool`` subprocess
with two worker threads.  A client waits on ``POST /v1/jobs?wait=``
before it sends its next request (closed loop).
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import random
import threading
import time

import spans
from daemon import Connection, Daemon
from scenarios import (
    GRAPH,
    RUN,
    SAMPLE,
    Op,
    Phase,
    Workload,
    derive,
    factor_between,
    make_graph,
    percentile,
    reference_ms,
)

#: client threads (and connections): the machine has two cores, and the
#: daemon two worker threads
CLIENTS = 2
#: pause between two reference-loop samples of a phase
REFERENCE_PAUSE_S = 0.02
#: answers compared against an in-process ``EMTS.schedule`` per phase
IDENTITY_SAMPLE = 3


class ServiceWorkload(Workload):
    """Closed-loop clients against a ``repro-emts serve`` subprocess."""

    #: every reply must name this ``served_from`` (``None``: any)
    served_from: str | None = None
    #: the daemon's spans have no benchmark-side root
    ledger_root = None

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.daemon: Daemon | None = None
        self._docs: dict[int, dict] = {}

    def request_doc(self, i: int) -> dict:
        raise NotImplementedError

    def body(self, i: int) -> bytes:
        return json.dumps(self.request_doc(i)).encode("utf-8")

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> None:
        self._start(traced=False)

    def _start(self, traced: bool) -> None:
        self.daemon = Daemon(traced)
        self.daemon.start()
        self.warm_up()

    def warm_up(self) -> None:
        """Work the daemon does before the first timed request."""

    def teardown(self) -> None:
        if self.daemon is not None:
            daemon, self.daemon = self.daemon, None
            daemon.stop()

    def begin_traced(self) -> None:
        self.teardown()
        self._start(traced=True)

    def end_traced(self) -> spans.SpanRecorder:
        daemon, self.daemon = self.daemon, None
        recorder = daemon.stop()
        if recorder is None:
            raise RuntimeError("the traced daemon wrote no spans")
        return recorder

    # -- the timed phase ------------------------------------------------
    def run_phase(self, seconds: float) -> Phase:
        daemon = self.daemon
        stats_conn = Connection(daemon.port)
        try:
            before = stats_conn.get_json("/v1/stats")["result_cache"]
            cpu_before = daemon.cpu_seconds()
            counter = itertools.count()
            raw: list[list] = [[] for _ in range(CLIENTS)]
            ends = [0.0] * CLIENTS
            reference: list[tuple[float, float]] = []
            start = time.perf_counter()
            epoch0 = time.time()
            deadline = start + seconds

            def client(c: int) -> None:
                conn = Connection(daemon.port)
                try:
                    while time.perf_counter() < deadline:
                        i = next(counter)
                        body = self.body(i)
                        t0 = time.perf_counter()
                        try:
                            status, data = conn.post_job(body)
                            error = None
                        except (OSError, http.client.HTTPException) as exc:
                            status, data, error = 0, b"", repr(exc)
                        t1 = time.perf_counter()
                        raw[c].append(
                            (t0, t1, (i, (t1 - t0) * 1e3, time.time(), status, data, error))
                        )
                finally:
                    ends[c] = time.perf_counter()
                    conn.close()

            threads = [
                threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)
            ]
            for t in threads:
                t.start()
            # the host's speed, sampled while the clients wait on the daemon
            while any(t.is_alive() for t in threads):
                t0 = time.perf_counter()
                ms = reference_ms()
                reference.append((t0 + ms / 2e3, ms))
                time.sleep(REFERENCE_PAUSE_S)
            for t in threads:
                t.join()
            wall = max(ends) - start
            epoch1 = time.time()
            cpu = daemon.cpu_seconds() - cpu_before
            after = stats_conn.get_json("/v1/stats")["result_cache"]
            rss = daemon.peak_rss_mb()
        finally:
            stats_conn.close()
        ops = []
        for t0, t1, entry in itertools.chain.from_iterable(raw):
            op = self._decode(*entry)
            op.factor = factor_between(reference, t0, t1)
            ops.append(op)
        ops.sort(key=lambda op: op.index)
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        return Phase(
            ops=ops,
            wall_s=wall,
            window=(epoch0, epoch1),
            info={
                "daemon_cpu_util": cpu / wall,
                "result_cache_hit_ratio": hits / lookups if lookups else 0.0,
                "daemon_peak_rss_mb": rss,
            },
            reference=[ms for _, ms in reference],
        )

    def _decode(self, i, ms, received, status, data, error) -> Op:
        if error is not None:
            return Op(i, ms, False, error=error)
        try:
            doc = json.loads(data)
        except ValueError:
            return Op(i, ms, False, error=f"HTTP {status}: unreadable body")
        job = doc.get("job", {})
        result = doc.get("result")
        if status != 200 or job.get("state") != "done" or result is None:
            state = job.get("state")
            return Op(i, ms, False, error=f"HTTP {status}, {state}: {doc.get('error')}")
        served = job.get("served_from")
        if self.served_from is not None and served != self.served_from:
            return Op(i, ms, False, error=f"served from {served}, not {self.served_from}")
        digest = hashlib.sha256(
            json.dumps(result, sort_keys=True).encode("utf-8")
        ).hexdigest()
        return Op(
            i,
            ms,
            True,
            # a cached answer evaluated no genome for this request
            genomes=0 if served == "result-cache" else int(result["evaluations"]),
            output=digest,
            extra={
                "result": result,
                "job_id": job["id"],
                "bytes": len(data),
                "started_at": job["started_at"],
                "wait_ms": (job["started_at"] - job["submitted_at"]) * 1e3,
                "run_ms": (job["finished_at"] - job["started_at"]) * 1e3,
                "notify_ms": (received - job["finished_at"]) * 1e3,
            },
        )

    def peak_rss_mb(self, phase: Phase) -> float:
        return phase.info["daemon_peak_rss_mb"]

    # -- checks ---------------------------------------------------------
    def check(self, phase: Phase) -> list[str]:
        from repro.exceptions import ReproError
        from repro.graph import ptg_from_dict
        from repro.mapping import schedule_from_dict
        from repro.platform import by_name
        from repro.timemodels import AmdahlModel, TimeTable
        from repro.verify import ScheduleVerifier

        problems = []
        verified: set[str] = set()
        for op in phase.ops:
            if not op.ok:
                problems.append(f"request {op.index}: {op.error}")
                continue
            if op.output in verified:
                continue  # the same bytes passed already
            doc = self.request_doc(op.index)
            result = op.extra["result"]
            ptg = ptg_from_dict(doc["ptg"])
            table = TimeTable.build(AmdahlModel(), ptg, by_name(doc["platform"]))
            try:
                schedule = schedule_from_dict(
                    result["schedule"], ptg, validate=True, table=table
                )
                ScheduleVerifier(ptg, table).verify(
                    schedule, expected_makespan=result["makespan"]
                )
            except ReproError as exc:
                op.ok = False
                problems.append(f"request {op.index}: {exc}")
                continue
            verified.add(op.output)
        problems.extend(self._check_identity(phase))
        return problems

    def _check_identity(self, phase: Phase) -> list[str]:
        """A seeded sample of answers equals an in-process EMTS run."""
        from repro.core import emts5, emts10
        from repro.graph import ptg_from_dict
        from repro.mapping import schedule_to_dict
        from repro.platform import by_name
        from repro.timemodels import AmdahlModel

        ok_ops = phase.ok_ops()
        picker = random.Random(derive(self.seed, SAMPLE))
        problems = []
        for op in picker.sample(ok_ops, min(IDENTITY_SAMPLE, len(ok_ops))):
            doc = self.request_doc(op.index)
            factory = emts5 if doc["algorithm"] == "emts5" else emts10
            offline = factory().schedule(
                ptg_from_dict(doc["ptg"]),
                by_name(doc["platform"]),
                AmdahlModel(),
                rng=doc["seed"],
            )
            answer = op.extra["result"]
            if (
                float(offline.makespan) != answer["makespan"]
                or schedule_to_dict(offline.schedule) != answer["schedule"]
            ):
                op.ok = False
                problems.append(
                    f"request {op.index}: answer differs from the in-process "
                    f"run ({answer['makespan']!r} vs {offline.makespan!r})"
                )
        return problems

    # -- ledger ---------------------------------------------------------
    def ledger_rows(self, traced: Phase, ledger) -> list[tuple]:
        """Queue wait: from the end of the job's submit span to its start.

        The reply's ``submitted_at`` is stamped inside ``submit``, so the
        span's end (joined by job id) keeps the two from overlapping.
        """
        submitted = {
            ledger.tags[r[0]]: r[4] + ledger.epoch_offset
            for r in ledger.spans("service.submit")
            if r[0] in ledger.tags
        }
        waits = [
            max(0.0, op.extra["started_at"] - submitted[op.extra["job_id"]]) * 1e3
            for op in traced.ok_ops()
            if op.extra["job_id"] in submitted
        ]
        return [("service.queue_wait", len(waits), sum(waits))]

    def layer_metrics(self, untraced, traced, ledger) -> dict:
        ops = untraced.ok_ops()
        runs = ledger.count.get("service.run_request", 0)
        persists = ledger.count.get("service.spool.persist", 0)
        metrics = {
            "service.daemon_cpu_util": untraced.info["daemon_cpu_util"],
            "service.result_cache.hit_ratio": untraced.info["result_cache_hit_ratio"],
            "service.response_bytes": (
                sum(op.extra["bytes"] for op in ops) / len(ops) if ops else 0.0
            ),
            "service.spool.persists_per_request": persists / (len(traced.ops) or 1),
            "service.warm.hit_ratio": (
                1.0 - ledger.count.get("service.prepare", 0) / runs if runs else 0.0
            ),
        }
        for label, key in (
            ("queue.wait", "wait_ms"),
            ("run", "run_ms"),
            ("notify", "notify_ms"),
        ):
            values = [op.extra[key] for op in ops]
            metrics[f"service.{label}_ms_p50"] = percentile(values, 50)
            metrics[f"service.{label}_ms_p90"] = percentile(values, 90)
        return metrics

    def report(self, untraced, traced, ledger) -> list[str]:
        """Replay the server's JSON decode and encode on the same bytes."""
        ops = untraced.ok_ops()[:200]
        if not ops:
            return []
        bodies = [self.body(op.index) for op in ops]
        replies = [{"job": {}, "result": op.extra["result"]} for op in ops]
        t0 = time.perf_counter()
        for body in bodies:
            json.loads(body.decode("utf-8"))
        t1 = time.perf_counter()
        for reply in replies:
            (json.dumps(reply) + "\n").encode("utf-8")
        t2 = time.perf_counter()
        n = len(ops)
        return [
            f"  server JSON replayed in process: decode {(t1 - t0) * 1e3 / n:.3f} ms"
            f" + encode {(t2 - t1) * 1e3 / n:.3f} ms per request"
            f" ({sum(map(len, bodies)) / n:.0f} B in,"
            f" {sum(op.extra['bytes'] for op in ops) / n:.0f} B out)"
        ]


class ServiceRun(ServiceWorkload):
    """Every request misses the result cache: cold and warm problems."""

    name = "service-run"

    def request_doc(self, i: int) -> dict:
        # even requests bring a never-seen PTG (cold: prepare_problem
        # runs), odd ones a new seed on the PTG of request i - 3, which
        # has been answered by then (warm, if the same worker takes it)
        g = i if i % 2 == 0 else (i - 3 if i >= 3 else i - 1)
        ptg_doc = self._docs.get(g)
        if ptg_doc is None:
            from repro.graph import ptg_to_dict

            graph = "fft15" if self.smoke else "fft39"
            ptg_doc = ptg_to_dict(make_graph(graph, derive(self.seed, GRAPH, g)))
            self._docs[g] = ptg_doc
        return {
            "ptg": ptg_doc,
            "platform": "grelon",
            "model": "amdahl",
            "algorithm": "emts5",
            "seed": derive(self.seed, RUN, i),
        }


class ServiceCached(ServiceWorkload):
    """A fixed request set answered during set-up: every reply is a hit."""

    name = "service-cached"
    served_from = "result-cache"
    REQUESTS = (
        ("strassen", "chti"),
        ("fft39", "grelon"),
        ("fft95", "chti"),
        ("daggen100", "grelon"),
        ("strassen", "grelon"),
        ("fft39", "chti"),
        ("fft95", "grelon"),
        ("daggen100", "chti"),
    )
    SMOKE_REQUESTS = (("strassen", "chti"), ("fft15", "grelon"))

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.requests = self.SMOKE_REQUESTS if smoke else self.REQUESTS
        self._bodies: dict[int, bytes] = {}

    def request_doc(self, i: int) -> dict:
        k = i % len(self.requests)
        doc = self._docs.get(k)
        if doc is None:
            from repro.graph import ptg_to_dict

            graph, platform = self.requests[k]
            doc = self._docs[k] = {
                "ptg": ptg_to_dict(make_graph(graph, derive(self.seed, GRAPH, k))),
                "platform": platform,
                "model": "amdahl",
                "algorithm": "emts5",
                "seed": derive(self.seed, RUN, k),
            }
        return doc

    def body(self, i: int) -> bytes:
        k = i % len(self.requests)
        data = self._bodies.get(k)
        if data is None:
            data = self._bodies[k] = super().body(k)
        return data

    def warm_up(self) -> None:
        conn = Connection(self.daemon.port)
        try:
            for k in range(len(self.requests)):
                status, _ = conn.post_job(self.body(k))
                if status != 200:
                    raise RuntimeError(f"warm-up request {k} answered {status}")
        finally:
            conn.close()
