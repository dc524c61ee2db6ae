"""Service-level chaos: fault-injecting proxy, spool corruptors, daemon
harness.

:mod:`repro.testing.chaos` attacks the *evaluation* layer (worker
kills, NaN fitness).  This module attacks the layer above it — the
network and the disk that the scheduling service depends on:

* :class:`ChaosProxy` — a tiny threaded TCP proxy between a client and
  a ``repro-emts serve`` daemon that injects faults per connection:
  refuse, delay, truncate the response mid-body, or forward the
  request and then RST the client before relaying the response (the
  canonical "POST landed, ack lost" ambiguity that idempotency keys
  exist to resolve).  :class:`ServiceClient` opens one connection per
  request, so connection ordinals map 1:1 onto requests and a
  :class:`ProxyPlan` is an exact per-request fault schedule.

* :func:`corrupt_record` — deterministic corruptors of one frame of a
  spool log (truncate, tamper, zero-fill, torn tail) for exercising
  the quarantine path of :meth:`repro.service.jobs.JobStore.recover`;
  :func:`spool_frames` reads a log's intact frames.

* :class:`ServiceDaemon` — a subprocess harness around ``repro-emts
  serve`` with crash-point env plumbing and hard-kill support, for
  kill-restart recovery tests and the recovery bench.

Everything here is stdlib-only and seeded: a chaos run is exactly
reproducible from its plan.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..exceptions import ReproError
from ..util.crash import CRASH_ENV_VAR

__all__ = [
    "ProxyPlan",
    "ChaosProxy",
    "corrupt_record",
    "CORRUPTION_MODES",
    "ServiceDaemon",
    "DaemonStartupError",
]


class DaemonStartupError(ReproError):
    """The daemon subprocess died or never announced its port."""


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProxyPlan:
    """Per-connection fault schedule for :class:`ChaosProxy`.

    Connections are numbered from 0 in accept order.  Because the
    stdlib client reconnects for every request, ordinal *n* is request
    *n* — plans read as "fault the third submit", not "fault some
    bytes eventually".
    """

    #: Refuse these connections outright (accept + immediate close
    #: before reading the request) — looks like a dead daemon.
    drop_connections: frozenset[int] = frozenset()
    #: Forward the request upstream, read the full response, then send
    #: an RST to the client instead of relaying it.  The server state
    #: has changed; the client cannot know.  The worst failure mode.
    reset_after_request: frozenset[int] = frozenset()
    #: Relay only the first ``truncate_bytes`` bytes of the response,
    #: then close — a mid-body network partition.
    truncate_response: frozenset[int] = frozenset()
    truncate_bytes: int = 40
    #: Sleep this long before forwarding the request — latency spike.
    delay_connections: frozenset[int] = frozenset()
    delay_seconds: float = 0.2

    def __post_init__(self) -> None:
        if self.truncate_bytes < 0:
            raise ValueError(
                f"truncate_bytes must be >= 0, got {self.truncate_bytes}"
            )
        if self.delay_seconds < 0:
            raise ValueError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )

    @classmethod
    def sampled(
        cls,
        connections: int,
        *,
        seed: int,
        drop_rate: float = 0.0,
        reset_rate: float = 0.0,
        truncate_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_seconds: float = 0.2,
    ) -> "ProxyPlan":
        """Draw a random-but-reproducible plan over ``connections``.

        Each ordinal suffers at most one fault; rates are applied in
        drop → reset → truncate → delay order.
        """
        rng = random.Random(seed)
        drop: set[int] = set()
        reset: set[int] = set()
        trunc: set[int] = set()
        delay: set[int] = set()
        for i in range(connections):
            roll = rng.random()
            if roll < drop_rate:
                drop.add(i)
            elif roll < drop_rate + reset_rate:
                reset.add(i)
            elif roll < drop_rate + reset_rate + truncate_rate:
                trunc.add(i)
            elif roll < drop_rate + reset_rate + truncate_rate + delay_rate:
                delay.add(i)
        return cls(
            drop_connections=frozenset(drop),
            reset_after_request=frozenset(reset),
            truncate_response=frozenset(trunc),
            delay_connections=frozenset(delay),
            delay_seconds=delay_seconds,
        )


def _read_http_message(sock: socket.socket) -> bytes:
    """Read one HTTP/1.1 message (headers + Content-Length body).

    Sufficient for the service protocol: every request and response the
    stdlib client/daemon exchange carries an explicit Content-Length
    (no chunked encoding), and one connection carries one exchange.
    """
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    match = re.search(
        rb"^content-length:\s*(\d+)\s*$",
        head,
        re.IGNORECASE | re.MULTILINE,
    )
    length = int(match.group(1)) if match else 0
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        body += chunk
    return head + b"\r\n\r\n" + body


def _rst_close(sock: socket.socket) -> None:
    """Close with an RST instead of a FIN (SO_LINGER timeout 0)."""
    try:
        sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_LINGER,
            struct.pack("ii", 1, 0),
        )
    except OSError:
        pass
    sock.close()


class ChaosProxy:
    """Threaded TCP proxy injecting :class:`ProxyPlan` faults.

    Usage::

        with ChaosProxy(upstream_port, plan=plan) as proxy:
            client = RetryingServiceClient(port=proxy.port, ...)
            ...

    The proxy listens on ``127.0.0.1:0`` (OS-assigned); ``proxy.port``
    is the port to hand to the client.  Counters (``connections``,
    ``faults_injected``) are exposed for assertions.
    """

    def __init__(
        self,
        upstream_port: int,
        *,
        upstream_host: str = "127.0.0.1",
        plan: ProxyPlan | None = None,
        timeout: float = 30.0,
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = int(upstream_port)
        self.plan = plan if plan is not None else ProxyPlan()
        self.timeout = float(timeout)
        self.connections = 0
        self.faults_injected = 0
        self._lock = threading.Lock()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]
        self._closing = threading.Event()
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------
    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._closing.set()
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5.0)
        for thread in list(self._threads):
            thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                ordinal = self.connections
                self.connections += 1
            thread = threading.Thread(
                target=self._handle,
                args=(client, ordinal),
                name=f"chaos-proxy-{ordinal}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _handle(self, client: socket.socket, ordinal: int) -> None:
        plan = self.plan
        try:
            client.settimeout(self.timeout)
            if ordinal in plan.drop_connections:
                with self._lock:
                    self.faults_injected += 1
                _rst_close(client)
                return
            if ordinal in plan.delay_connections:
                with self._lock:
                    self.faults_injected += 1
                time.sleep(plan.delay_seconds)
            request = _read_http_message(client)
            if not request:
                client.close()
                return
            upstream = socket.create_connection(
                (self.upstream_host, self.upstream_port),
                timeout=self.timeout,
            )
            try:
                upstream.sendall(request)
                response = _read_http_message(upstream)
            finally:
                upstream.close()
            if ordinal in plan.reset_after_request:
                # The upstream processed the request and answered; the
                # client never hears about it.  Exactly the ambiguity
                # idempotent retries must resolve.
                with self._lock:
                    self.faults_injected += 1
                _rst_close(client)
                return
            if ordinal in plan.truncate_response:
                with self._lock:
                    self.faults_injected += 1
                client.sendall(response[: plan.truncate_bytes])
                client.close()
                return
            client.sendall(response)
            client.close()
        except OSError:
            try:
                client.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
CORRUPTION_MODES = ("truncate", "tamper", "zero", "partial-rename")


def corrupt_record(
    spool: Path | str, job_id: str, mode: str, *, seed: int = 0
) -> bytes:
    """Corrupt the latest frame of one job in a spool log.

    Modes
    -----
    ``truncate``
        Cut the frame's second half out of the log — a torn write
        inside the file.
    ``tamper``
        Overwrite 16 bytes in the middle of the frame with random
        bytes: same size, a payload that no longer matches its CRC.
    ``zero``
        Replace the frame with NUL bytes — what some filesystems leave
        after a power loss between metadata and data flush.
    ``partial-rename``
        Move the frame to the end of the log, torn: its last 7 bytes
        never made it, as after a crash mid-append.

    Returns the corrupt bytes as they now sit in the log.
    """
    from ..service.jobs import scan_log

    if mode not in CORRUPTION_MODES:
        raise ValueError(
            f"unknown corruption mode {mode!r}; pick from {CORRUPTION_MODES}"
        )
    log = Path(spool) / "jobs.log"
    data = log.read_bytes()
    (frame,) = [
        f for f in scan_log(data)[0] if f.job_id == job_id
    ][-1:]
    start, end = frame.offset, frame.end
    before, raw, after = data[:start], data[start:end], data[end:]
    if mode == "truncate":
        bad = raw[: len(raw) // 2]
        log.write_bytes(before + bad + after)
    elif mode == "tamper":
        rng = random.Random(seed)
        bad = bytearray(raw)
        mid = len(bad) // 2
        for offset in range(mid, min(mid + 16, len(bad))):
            bad[offset] = rng.randrange(256)
        bad = bytes(bad)
        log.write_bytes(before + bad + after)
    elif mode == "zero":
        bad = b"\x00" * len(raw)
        log.write_bytes(before + bad + after)
    else:
        bad = raw[: max(1, len(raw) - 7)]
        log.write_bytes(before + after + bad)
    return bad


# ----------------------------------------------------------------------
_LISTEN_RE = re.compile(r"listening on http://([\w.\-]+):(\d+)")


@dataclass
class ServiceDaemon:
    """``repro-emts serve`` as a managed subprocess.

    Starts the daemon on an OS-assigned port, parses the announced
    address from stdout, and supports both graceful stop (SIGTERM →
    drain) and hard kill (SIGKILL — the crash the recovery contract is
    about).  ``crash_point`` seeds ``REPRO_CRASH_POINT`` in the child's
    environment so a named detonation fires inside the daemon.
    """

    spool: Path
    workers: int = 1
    crash_point: str | None = None
    extra_args: tuple[str, ...] = ()
    env_overrides: dict[str, str] = field(default_factory=dict)
    startup_timeout: float = 30.0
    host: str = field(default="", init=False)
    port: int = field(default=0, init=False)
    proc: subprocess.Popen | None = field(default=None, init=False)

    # ------------------------------------------------------------------
    def start(self, wait_healthy: bool = True) -> "ServiceDaemon":
        if self.proc is not None and self.proc.poll() is None:
            raise DaemonStartupError("daemon already running")
        env = dict(os.environ)
        env.pop(CRASH_ENV_VAR, None)
        if self.crash_point:
            env[CRASH_ENV_VAR] = self.crash_point
        env.update(self.env_overrides)
        cmd = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--service-workers",
            str(self.workers),
            "--spool",
            str(self.spool),
            *self.extra_args,
        ]
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        deadline = time.monotonic() + self.startup_timeout
        assert self.proc.stdout is not None
        while True:
            line = self.proc.stdout.readline()
            if line:
                match = _LISTEN_RE.search(line)
                if match:
                    self.host = match.group(1)
                    self.port = int(match.group(2))
                    break
            if self.proc.poll() is not None:
                raise DaemonStartupError(
                    f"daemon exited with {self.proc.returncode} "
                    "before announcing its port"
                )
            if time.monotonic() > deadline:
                self.kill()
                raise DaemonStartupError(
                    f"daemon did not announce its port within "
                    f"{self.startup_timeout:g}s"
                )
        # Drain remaining output in the background so the child never
        # blocks on a full stdout pipe.
        threading.Thread(
            target=self._drain_stdout, name="daemon-stdout", daemon=True
        ).start()
        if wait_healthy:
            self.wait_healthy()
        return self

    def _drain_stdout(self) -> None:
        proc = self.proc
        if proc is None or proc.stdout is None:
            return
        try:
            for _ in proc.stdout:
                pass
        except (OSError, ValueError):
            pass

    # ------------------------------------------------------------------
    def wait_healthy(self, timeout: float = 30.0) -> float:
        """Block until ``/healthz`` answers; returns seconds waited."""
        from ..service.client import ServiceClient, ServiceUnavailable

        client = ServiceClient(self.host, self.port, timeout=5.0)
        start = time.monotonic()
        deadline = start + timeout
        while True:
            try:
                client.healthz()
                return time.monotonic() - start
            except ServiceUnavailable:
                if (
                    self.proc is not None
                    and self.proc.poll() is not None
                ):
                    raise DaemonStartupError(
                        f"daemon exited with {self.proc.returncode} "
                        "while waiting for /healthz"
                    ) from None
                if time.monotonic() > deadline:
                    raise DaemonStartupError(
                        f"daemon not healthy within {timeout:g}s"
                    ) from None
                time.sleep(0.05)

    # ------------------------------------------------------------------
    def kill(self) -> int | None:
        """SIGKILL — the crash. No drain, no flush, no goodbyes."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.kill()
        return self.wait()

    def terminate(self) -> int | None:
        """SIGTERM — graceful drain path."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.wait()

    def wait(self, timeout: float = 60.0) -> int | None:
        if self.proc is None:
            return None
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait(timeout=10.0)

    @property
    def returncode(self) -> int | None:
        return self.proc.returncode if self.proc is not None else None

    def __enter__(self) -> "ServiceDaemon":
        if self.proc is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()


# ----------------------------------------------------------------------
def spool_frames(spool: Path | str) -> list:
    """The intact frames of a spool's log, in log order (crash-safe
    view: a torn tail or a corrupt frame is skipped)."""
    from ..service.jobs import scan_log

    log = Path(spool) / "jobs.log"
    if not log.is_file():
        return []
    return scan_log(log.read_bytes())[0]


def spool_record(spool: Path | str, job_id: str) -> dict | None:
    """The record of a job's latest intact frame, decoded."""
    from ..service.jobs import scan_log

    log = Path(spool) / "jobs.log"
    data = log.read_bytes() if log.is_file() else b""
    frames = [f for f in scan_log(data)[0] if f.job_id == job_id]
    if not frames:
        return None
    return json.loads(data[frames[-1].body : frames[-1].end])


def spool_job_ids(spool: Path | str) -> set[str]:
    """The job ids currently persisted in a spool (crash-safe view)."""
    return {frame.job_id for frame in spool_frames(spool)}


def spool_ids_per_key(spool: Path | str) -> dict[str, set[str]]:
    """Idempotency key -> the job ids whose frames carry it."""
    seen: dict[str, set[str]] = {}
    for frame in spool_frames(spool):
        if frame.idempotency_key is not None:
            seen.setdefault(frame.idempotency_key, set()).add(frame.job_id)
    return seen


def quarantined_files(spool: Path | str) -> list[Path]:
    """Records parked in ``spool/quarantine/`` by recovery.

    Flight-recorder sidecars (``*.flight.json``) are evidence written
    *beside* quarantined records, not quarantined records themselves.
    """
    qdir = Path(spool) / "quarantine"
    if not qdir.is_dir():
        return []
    return sorted(
        p for p in qdir.iterdir() if not p.name.endswith(".flight.json")
    )


def wait_for(
    predicate, timeout: float = 30.0, interval: float = 0.05
) -> bool:
    """Poll ``predicate`` until truthy or the timeout expires."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())
