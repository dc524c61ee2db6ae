"""A ``repro-emts serve`` subprocess and a keep-alive client for it."""

from __future__ import annotations

import http.client
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import spans
from scenarios import HERE, ROOT, SRC, WORK

REQUEST_TIMEOUT_S = 60.0


def child_env() -> dict:
    """The environment of a child process: the checkout's ``src`` first."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


class Connection:
    """One keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes | None = None):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def post_job(self, body: bytes):
        """Submit and wait for the answer on the same connection."""
        return self.request("POST", f"/v1/jobs?wait={REQUEST_TIMEOUT_S}", body)

    def get_json(self, path: str) -> dict:
        status, data = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(data)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Daemon:
    """A ``repro-emts serve --spool`` subprocess with two worker threads.

    ``traced`` starts it through ``traced_serve.py``, which installs the
    layer wrappers first and writes the spans when the daemon drains.
    """

    def __init__(self, traced: bool) -> None:
        self.dir = WORK / f"daemon-{os.getpid()}-{time.monotonic_ns()}"
        self.spans_path = self.dir / "spans.json" if traced else None
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self._log = None
        self._lines: list[str] = []
        self._reader: threading.Thread | None = None

    def start(self, timeout: float = 60.0) -> None:
        """Start the daemon and return once ``/healthz`` answers 200."""
        self.dir.mkdir(parents=True)
        serve_args = [
            "--port", "0",
            "--spool", str(self.dir / "spool"),
            "--service-workers", "2",
        ]
        if self.spans_path is not None:
            cmd = [sys.executable, str(HERE / "traced_serve.py"),
                   str(self.spans_path), *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        self._log = open(self.dir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=child_env(),
            cwd=str(ROOT),
            text=True,
        )
        listening = threading.Event()

        def read_stdout() -> None:
            for line in self.proc.stdout:
                self._lines.append(line)
                if "listening on http://" in line:
                    self.port = int(line.rsplit(":", 1)[1])
                    listening.set()

        self._reader = threading.Thread(target=read_stdout, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + timeout
        while not listening.wait(0.01):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"daemon did not start: {self.log_tail()}")
        conn = Connection(self.port)
        try:
            while True:
                try:
                    if conn.request("GET", "/healthz")[0] == 200:
                        return
                except (OSError, http.client.HTTPException):
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError(f"daemon never became healthy: {self.log_tail()}")
                time.sleep(0.01)
        finally:
            conn.close()

    def log_tail(self) -> str:
        try:
            text = (self.dir / "daemon.log").read_text(errors="replace")
        except OSError:
            text = ""
        return (text + "".join(self._lines))[-2000:]

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> spans.SpanRecorder | None:
        """Drain the daemon (SIGTERM), wait for it, remove its files.

        Returns the spans a traced daemon wrote, else ``None``.
        """
        recorder = None
        try:
            if self.proc is not None:
                if self.proc.poll() is None:
                    self.proc.terminate()
                try:
                    self.proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=60)
                if self._reader is not None:
                    self._reader.join(timeout=10)
                self.proc.stdout.close()
            if self.spans_path is not None and self.spans_path.exists():
                recorder = spans.SpanRecorder.load(self.spans_path)
        finally:
            if self._log is not None:
                self._log.close()
            shutil.rmtree(self.dir, ignore_errors=True)
        return recorder
