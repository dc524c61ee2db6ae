"""Zero-dependency metrics registry: counters, gauges, histograms.

Design constraints, in order:

* **cheap** — instruments are plain attribute updates behind the
  registry's one lock; the hot path (fitness batches) touches them once
  per *batch*, never per genome;
* **thread-safe** — every update and every read takes that lock, so
  any thread may record into one registry (the scheduling daemon's
  front end, queue and workers all share one) and a snapshot never
  sees a half-applied observation.  It is a leaf lock: nothing else is
  acquired while it is held;
* **exportable** — JSON and Prometheus exposition renderings, both
  derived from the same snapshot.

Metric names are dotted (``emts.evaluations``,
``evaluation.batch_seconds``); the Prometheus exporter mangles them to
``repro_emts_evaluations``-style identifiers.
"""

from __future__ import annotations

import json
import math
import os
import threading
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
]

#: Default fixed bucket upper bounds for duration histograms (seconds).
#: Decade-stepped from 100 us to 100 s; values above the last bound land
#: in the implicit +inf bucket.
DEFAULT_SECONDS_BUCKETS = (
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    10.0,
    100.0,
)


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "help", "value", "_lock")

    def __init__(
        self, name: str, lock: threading.Lock, help: str = ""
    ) -> None:
        self.name = name
        self.help = help
        self.value = 0
        self._lock = lock

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A value that can move both ways (last write wins)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value", "_lock")

    def __init__(
        self, name: str, lock: threading.Lock, help: str = ""
    ) -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram (cumulative on export, like Prometheus).

    ``buckets`` are the finite upper bounds; an implicit ``+inf`` bucket
    catches everything above the last bound.  Counts are stored
    per-bucket (non-cumulative) internally; ``total`` is the number of
    samples and ``sum`` their sum.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "counts", "total", "sum", "_lock")

    def __init__(
        self,
        name: str,
        lock: threading.Lock,
        buckets: Iterable[float] = DEFAULT_SECONDS_BUCKETS,
        help: str = "",
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs >= 1 bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} bucket bounds must be strictly "
                f"increasing, got {bounds}"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = +inf bucket
        self.total = 0
        self.sum = 0.0
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            self.total += 1
            self.sum += value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 < q <= 1) from the buckets.

        Prometheus-style linear interpolation inside the bucket that
        crosses the target rank; values in the implicit ``+inf`` bucket
        clamp to the last finite bound (the estimate is then a lower
        bound).  Returns 0.0 for an empty histogram.  Used by the
        scheduling service to derive p50/p99 request latencies from the
        live histogram without storing raw samples.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must lie in (0, 1], got {q}")
        with self._lock:
            if self.total == 0:
                return 0.0
            rank = q * self.total
            cumulative = 0
            for i, bound in enumerate(self.buckets):
                prev_cumulative = cumulative
                cumulative += self.counts[i]
                if cumulative >= rank:
                    lower = self.buckets[i - 1] if i > 0 else 0.0
                    if self.counts[i] == 0:  # pragma: no cover - defensive
                        return bound
                    fraction = (rank - prev_cumulative) / self.counts[i]
                    return lower + (bound - lower) * fraction
            return self.buckets[-1]

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Named instruments behind one lock; record from any thread.

    Every update (:meth:`Counter.inc`, :meth:`Gauge.set`,
    :meth:`Histogram.observe`) and every read (:meth:`snapshot`,
    :meth:`Histogram.quantile`) takes the registry's lock, which the
    instruments share, so concurrent increments are never lost and a
    snapshot is one consistent cut across every instrument.  Nothing
    else is acquired while the lock is held, so a caller may record
    while holding locks of its own.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Any] = {}

    # -- instrument factories (get-or-create) --------------------------
    def _get(self, name: str, cls, **kwargs):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name, self._lock, **kwargs)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{inst.kind}, not {cls.kind}"
                )
            return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_SECONDS_BUCKETS,
        help: str = "",
    ) -> Histogram:
        return self._get(name, Histogram, buckets=buckets, help=help)

    # -- introspection -------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str):
        """The instrument registered under ``name`` (or ``None``)."""
        return self._instruments.get(name)

    def value(self, name: str):
        """Shortcut: the scalar value of a counter/gauge."""
        return self._instruments[name].value

    # -- aggregation ---------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Plain-dict state of every instrument (JSON-serializable)."""
        with self._lock:
            return {
                name: inst.to_dict()
                for name, inst in sorted(self._instruments.items())
            }

    # -- exporters -----------------------------------------------------
    def render_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        out: list[str] = []
        for name, data in self.snapshot().items():
            metric = _prom_name(prefix, name)
            kind = data["kind"]
            if kind == "counter":
                out.append(f"# TYPE {metric} counter")
                out.append(f"{metric} {_prom_value(data['value'])}")
            elif kind == "gauge":
                out.append(f"# TYPE {metric} gauge")
                out.append(f"{metric} {_prom_value(data['value'])}")
            else:  # histogram
                out.append(f"# TYPE {metric} histogram")
                cumulative = 0
                for bound, count in zip(
                    data["buckets"], data["counts"]
                ):
                    cumulative += count
                    out.append(
                        f'{metric}_bucket{{le="{_prom_value(bound)}"}} '
                        f"{cumulative}"
                    )
                out.append(
                    f'{metric}_bucket{{le="+Inf"}} {data["total"]}'
                )
                out.append(f"{metric}_count {data['total']}")
                out.append(f"{metric}_sum {_prom_value(data['sum'])}")
        return "\n".join(out) + ("\n" if out else "")

    def to_json(self) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def dump(self, path: str | Path) -> Path:
        """Write the registry to ``path`` atomically.

        ``.prom`` paths get the Prometheus exposition; anything else
        gets the JSON snapshot.
        """
        path = Path(path)
        if path.suffix == ".prom":
            text = self.render_prometheus()
        else:
            text = self.to_json() + "\n"
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({len(self)} metrics)"


def _prom_name(prefix: str, name: str) -> str:
    mangled = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"{prefix}_{mangled}"


def _prom_value(value: float) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)
