"""Crash-only experiment campaigns.

A *campaign* is an ordered list of named trials — independent,
deterministic units of work (one PTG × platform × algorithm comparison,
one figure cell, one runtime measurement) — executed so that nothing
short of losing the output directory can lose work:

* every trial runs in its **own subprocess** with an optional wall-clock
  timeout, so a segfault, an OOM kill or a hang takes down one trial,
  never the campaign;
* failed trials are retried with exponential backoff a bounded number of
  times, then **quarantined**: the failure is recorded in the campaign
  directory and the run moves on instead of dying;
* each finished trial's payload is persisted **atomically**
  (write-to-temp + :func:`os.replace`), so a kill at any instant leaves
  either the complete result or nothing — never a torn file;
* the campaign directory *is* the state.  Re-running the same campaign
  against the same directory skips every valid persisted result and
  re-executes only what is missing, so an interrupted campaign resumes
  where it stopped and produces **bit-identical aggregates** to an
  uninterrupted one.

The manifest (``manifest.json``) records the campaign's identity — its
ordered trial keys and a fingerprint over the trial functions — so a
directory can never silently be resumed by a *different* campaign.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..exceptions import CampaignError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..util.backoff import exponential_delay

__all__ = [
    "Trial",
    "TrialFailure",
    "CampaignResult",
    "run_campaign",
    "campaign_status",
]

_KEY_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_FORMAT = "repro-campaign"
_VERSION = 1

#: Default per-attempt retry backoff base (seconds).
DEFAULT_RETRY_BACKOFF = 0.1


@dataclass(frozen=True)
class Trial:
    """One unit of campaign work.

    ``func`` must be a module-level callable (it is dispatched to a
    subprocess) and must return a JSON-serializable payload; ``kwargs``
    are passed to it verbatim.  ``key`` names the trial's result file,
    so it must be unique within the campaign and filesystem-safe.
    """

    key: str
    func: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _KEY_RE.match(self.key):
            raise CampaignError(
                f"trial key {self.key!r} is not filesystem-safe "
                "(use letters, digits, '.', '_', '-')"
            )
        if not callable(self.func):
            raise CampaignError(
                f"trial {self.key!r}: func is not callable"
            )

    @property
    def func_id(self) -> str:
        """Stable identity of the trial function (module:qualname)."""
        return (
            f"{getattr(self.func, '__module__', '?')}:"
            f"{getattr(self.func, '__qualname__', repr(self.func))}"
        )


@dataclass(frozen=True)
class TrialFailure:
    """Why one trial ended up in quarantine."""

    key: str
    error: str
    attempts: int
    kind: str  # "exception" | "crash" | "timeout" | "unserializable"


@dataclass
class CampaignResult:
    """Everything a finished (or partially finished) campaign produced.

    ``results`` maps trial keys to their payloads in **manifest order**
    — including results resumed from disk — so aggregation over it is
    independent of which invocation actually executed each trial.
    """

    out_dir: Path
    results: dict[str, Any]
    quarantined: dict[str, TrialFailure]
    executed: tuple[str, ...]  # keys run by THIS invocation
    resumed: tuple[str, ...]  # keys loaded from a previous invocation
    pending: tuple[str, ...]  # keys not yet attempted (stopped early)

    @property
    def complete(self) -> bool:
        """True when every trial either succeeded or was quarantined."""
        return not self.pending

    def aggregate(self) -> list[Any]:
        """All payloads, in manifest order (quarantined trials absent)."""
        return list(self.results.values())

    def aggregate_json(self) -> str:
        """Canonical JSON of the aggregate.

        Byte-for-byte identical for any execution history that produced
        the same payloads — the property the resume tests pin down.
        """
        return json.dumps(
            {"results": self.results, "quarantined": sorted(self.quarantined)},
            sort_keys=True,
            separators=(",", ":"),
        )


# ----------------------------------------------------------------------
def _atomic_write_json(path: Path, payload: Any) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(
        json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8"
    )
    os.replace(tmp, path)


def _fingerprint(trials: Sequence[Trial]) -> str:
    ident = json.dumps(
        [[t.key, t.func_id] for t in trials], separators=(",", ":")
    )
    return hashlib.sha256(ident.encode("utf-8")).hexdigest()[:16]


def _trial_entry(conn, func, kwargs) -> None:
    """Subprocess entry point: run the trial, ship the outcome back."""
    try:
        payload = func(**kwargs)
    except BaseException:
        conn.send(("error", traceback.format_exc(limit=20)))
    else:
        try:
            conn.send(("ok", payload))
        except Exception as exc:  # unpicklable payload
            conn.send(("error", f"payload not sendable: {exc!r}"))
    finally:
        conn.close()


def _run_attempt(
    trial: Trial, timeout: float | None, ctx
) -> tuple[str, Any]:
    """One subprocess attempt.  Returns ("ok", payload) or a failure."""
    recv, send = ctx.Pipe(duplex=False)
    # daemon=False on purpose: a trial may itself spawn an evaluator pool
    proc = ctx.Process(
        target=_trial_entry,
        args=(send, trial.func, dict(trial.kwargs)),
        daemon=False,
    )
    proc.start()
    send.close()
    try:
        if not recv.poll(timeout):
            proc.terminate()
            proc.join(5.0)
            if proc.is_alive():  # pragma: no cover - stuck in kernel
                proc.kill()
                proc.join()
            return (
                "timeout",
                f"trial exceeded {timeout} s and was terminated",
            )
        try:
            status, detail = recv.recv()
        except (EOFError, OSError):
            proc.join()
            return (
                "crash",
                f"trial process died without reporting a result "
                f"(exit code {proc.exitcode})",
            )
        proc.join()
        if status == "ok":
            return ("ok", detail)
        return ("exception", detail)
    finally:
        recv.close()
        if proc.is_alive():  # pragma: no cover - defensive
            proc.kill()
            proc.join()


def _load_result(path: Path, key: str) -> Any:
    """A persisted payload, or None when the file is unusable."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if (
        not isinstance(data, dict)
        or data.get("format") != _FORMAT
        or data.get("key") != key
        or "payload" not in data
    ):
        return None
    return data


def _check_manifest(
    manifest_path: Path, trials: Sequence[Trial]
) -> None:
    """Validate an existing manifest against this campaign's identity."""
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CampaignError(
            f"campaign manifest {manifest_path} is unreadable "
            f"({exc}); refusing to resume into a corrupt directory"
        ) from exc
    if manifest.get("format") != _FORMAT:
        raise CampaignError(
            f"{manifest_path} is not a campaign manifest"
        )
    if manifest.get("fingerprint") != _fingerprint(trials) or manifest.get(
        "trials"
    ) != [t.key for t in trials]:
        raise CampaignError(
            f"campaign directory {manifest_path.parent} belongs to a "
            "different campaign (trial list or functions changed); "
            "use a fresh --out directory"
        )


def run_campaign(
    trials: Sequence[Trial],
    out_dir: str | Path,
    trial_timeout: float | None = None,
    max_retries: int = 2,
    retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    mp_context: str | None = None,
    max_trials: int | None = None,
    retry_quarantined: bool = False,
    progress: Callable[[str, str], None] | None = None,
    trace: str | Path | Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> CampaignResult:
    """Execute (or resume) a campaign against ``out_dir``.

    Parameters
    ----------
    trials:
        The campaign, in order.  Keys must be unique.
    out_dir:
        Campaign state directory; created if missing.  Re-running with
        the same trials resumes: persisted results are loaded, not
        recomputed.
    trial_timeout:
        Optional per-attempt wall-clock limit (seconds); a timed-out
        attempt counts as a failure and is retried.
    max_retries:
        Additional attempts after the first failure before the trial is
        quarantined.
    retry_backoff:
        Base of the exponential backoff slept between attempts.
    mp_context:
        :mod:`multiprocessing` start method for the trial subprocesses
        (``None`` = platform default).
    max_trials:
        Stop (cleanly) after executing this many trials in *this*
        invocation; remaining trials stay pending for the next resume.
        Used by tests to simulate interruption at a trial boundary.
    retry_quarantined:
        Re-attempt trials a previous invocation quarantined instead of
        carrying the recorded failure forward.
    progress:
        Optional ``callback(key, status)`` invoked per trial with status
        ``"resumed"``, ``"ok"`` or ``"quarantined"``.
    trace:
        Write a structured JSONL campaign trace to this path (or into
        an already-open :class:`repro.obs.Tracer`): one
        ``campaign_start`` span holding one ``campaign_trial`` event
        per trial (key, status, attempts) and a closing
        ``campaign_end`` with the outcome counts.
    metrics:
        A :class:`repro.obs.MetricsRegistry` to fill with
        ``campaign.trials.*`` outcome counters and the
        ``campaign.trial_seconds`` wall-time histogram.

    Raises
    ------
    CampaignError
        On duplicate/invalid trial keys or a directory that belongs to a
        different campaign.  Individual trial failures never raise.
    """
    trials = list(trials)
    keys = [t.key for t in trials]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise CampaignError(f"duplicate trial keys: {dupes}")
    if max_retries < 0:
        raise CampaignError(
            f"max_retries must be >= 0, got {max_retries}"
        )
    if retry_backoff < 0:
        raise CampaignError(
            f"retry_backoff must be >= 0, got {retry_backoff}"
        )
    out_dir = Path(out_dir)
    trials_dir = out_dir / "trials"
    quarantine_dir = out_dir / "quarantine"
    trials_dir.mkdir(parents=True, exist_ok=True)
    quarantine_dir.mkdir(parents=True, exist_ok=True)

    manifest_path = out_dir / "manifest.json"
    if manifest_path.exists():
        _check_manifest(manifest_path, trials)
    else:
        _atomic_write_json(
            manifest_path,
            {
                "format": _FORMAT,
                "version": _VERSION,
                "fingerprint": _fingerprint(trials),
                "trials": keys,
            },
        )

    ctx = multiprocessing.get_context(mp_context)
    results: dict[str, Any] = {}
    quarantined: dict[str, TrialFailure] = {}
    executed: list[str] = []
    resumed: list[str] = []
    pending: list[str] = []
    budget = len(trials) if max_trials is None else max_trials

    tracer: Tracer | None
    owns_tracer = False
    if trace is None:
        tracer = None
    elif isinstance(trace, Tracer):
        tracer = trace
    else:
        tracer = Tracer(trace)
        owns_tracer = True

    def _note(key: str, status: str, **attrs: Any) -> None:
        if tracer is not None:
            tracer.event(
                "campaign_trial",
                attrs={"key": key, "status": status, **attrs},
            )
        if metrics is not None:
            metrics.counter(f"campaign.trials.{status}").inc()
        if progress:
            progress(key, status)

    if tracer is not None:
        tracer.begin(
            "campaign_start",
            attrs={
                "trials": len(trials),
                "fingerprint": _fingerprint(trials),
            },
        )

    try:
        _run_trials(
            trials,
            trials_dir,
            quarantine_dir,
            ctx,
            trial_timeout,
            max_retries,
            retry_backoff,
            retry_quarantined,
            budget,
            results,
            quarantined,
            executed,
            resumed,
            pending,
            _note,
            metrics,
        )
    finally:
        if tracer is not None:
            tracer.end(
                "campaign_end",
                attrs={
                    "ok": sum(1 for k in executed if k in results),
                    "completed": len(results),
                    "resumed": len(resumed),
                    "quarantined": len(quarantined),
                    "pending": len(pending),
                },
            )
            if owns_tracer:
                tracer.close()

    return CampaignResult(
        out_dir=out_dir,
        results=results,
        quarantined=quarantined,
        executed=tuple(executed),
        resumed=tuple(resumed),
        pending=tuple(pending),
    )


def _run_trials(
    trials,
    trials_dir,
    quarantine_dir,
    ctx,
    trial_timeout,
    max_retries,
    retry_backoff,
    retry_quarantined,
    budget,
    results,
    quarantined,
    executed,
    resumed,
    pending,
    _note,
    metrics,
) -> None:
    """The campaign's trial loop (factored out of :func:`run_campaign`
    so the tracer's start/end span can bracket it exactly)."""
    for trial in trials:
        result_path = trials_dir / f"{trial.key}.json"
        quarantine_path = quarantine_dir / f"{trial.key}.json"

        stored = _load_result(result_path, trial.key)
        if stored is not None:
            results[trial.key] = stored["payload"]
            resumed.append(trial.key)
            _note(trial.key, "resumed")
            continue
        if quarantine_path.exists() and not retry_quarantined:
            failure = _load_result(quarantine_path, trial.key)
            quarantined[trial.key] = TrialFailure(
                key=trial.key,
                error=(
                    failure["payload"].get("error", "unknown")
                    if failure
                    else "quarantine record unreadable"
                ),
                attempts=(
                    failure["payload"].get("attempts", 0) if failure else 0
                ),
                kind=(
                    failure["payload"].get("kind", "unknown")
                    if failure
                    else "unknown"
                ),
            )
            resumed.append(trial.key)
            _note(trial.key, "quarantined", carried=True)
            continue

        if budget <= 0:
            pending.append(trial.key)
            continue
        budget -= 1

        attempts = 0
        t0 = time.perf_counter()
        while True:
            attempts += 1
            status, detail = _run_attempt(trial, trial_timeout, ctx)
            if status == "ok":
                try:
                    _atomic_write_json(
                        result_path,
                        {
                            "format": _FORMAT,
                            "version": _VERSION,
                            "key": trial.key,
                            "payload": detail,
                            "attempts": attempts,
                            "seconds": time.perf_counter() - t0,
                        },
                    )
                except TypeError:
                    status, detail = (
                        "unserializable",
                        f"payload of {trial.func_id} is not "
                        "JSON-serializable",
                    )
                else:
                    results[trial.key] = detail
                    executed.append(trial.key)
                    seconds = time.perf_counter() - t0
                    if metrics is not None:
                        metrics.histogram(
                            "campaign.trial_seconds"
                        ).observe(seconds)
                    _note(
                        trial.key,
                        "ok",
                        attempts=attempts,
                        trial_seconds=seconds,
                    )
                    break
            if attempts > max_retries or status == "unserializable":
                quarantine_path.parent.mkdir(exist_ok=True)
                _atomic_write_json(
                    quarantine_path,
                    {
                        "format": _FORMAT,
                        "version": _VERSION,
                        "key": trial.key,
                        "payload": {
                            "error": detail,
                            "attempts": attempts,
                            "kind": status,
                        },
                    },
                )
                quarantined[trial.key] = TrialFailure(
                    key=trial.key,
                    error=detail,
                    attempts=attempts,
                    kind=status,
                )
                executed.append(trial.key)
                _note(
                    trial.key,
                    "quarantined",
                    attempts=attempts,
                    kind=status,
                )
                break
            time.sleep(exponential_delay(retry_backoff, attempts))


def campaign_status(out_dir: str | Path) -> dict[str, Any]:
    """Summarize a campaign directory without running anything.

    Returns a dict with the manifest's trial list plus per-trial status
    (``"done"`` / ``"quarantined"`` / ``"pending"``), for progress
    reports and the CLI.
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CampaignError(
            f"no readable campaign manifest at {manifest_path}: {exc}"
        ) from exc
    if manifest.get("format") != _FORMAT:
        raise CampaignError(
            f"{manifest_path} is not a campaign manifest"
        )
    status: dict[str, str] = {}
    for key in manifest.get("trials", []):
        if _load_result(out_dir / "trials" / f"{key}.json", key):
            status[key] = "done"
        elif (out_dir / "quarantine" / f"{key}.json").exists():
            status[key] = "quarantined"
        else:
            status[key] = "pending"
    return {
        "trials": manifest.get("trials", []),
        "fingerprint": manifest.get("fingerprint"),
        "status": status,
        "done": sum(1 for s in status.values() if s == "done"),
        "quarantined": sum(
            1 for s in status.values() if s == "quarantined"
        ),
        "pending": sum(1 for s in status.values() if s == "pending"),
    }
