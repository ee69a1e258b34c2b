"""The process-wide metrics registry: counters, gauges, histograms, sources.

Two kinds of metrics live here:

* **Native metrics** — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instances created (get-or-create) through the
  registry under stable dotted names (``span.engine.generate``,
  ``search.iterations``, ``cost.kernel.delta_evals``, …).  Histograms
  are bounded: a fixed-size reservoir of the most recent observations
  backs the p50/p95/p99 quantiles, while count/sum/min/max are exact
  over the full stream.

* **Sources** — callables that snapshot *existing* ad-hoc counters
  (``repro.memo.INGEST``, every named :class:`~repro.memo.BoundedLRU`,
  :class:`~repro.serve.cache.InterfaceCache`, the session router's
  ingest totals) into the same dotted namespace at read time.  This is
  how the registry absorbs the pre-existing instrumentation without
  touching its hot paths: the counters stay plain ints where they are,
  and the registry prefixes and merges them on ``snapshot()``.  Sources
  registered with ``weak=True`` hold only a weak reference to their
  owner, so registering every cache at construction cannot leak caches;
  dead sources are pruned on the next snapshot or registration.

All operations are thread-safe: callers sharing one Engine across
threads observe spans and bump counters concurrently.
"""

from __future__ import annotations

import math
import re
import threading
import weakref
from collections import deque
from typing import Any, Callable, Dict, List, Optional

#: Dotted lowercase metric names only — the stable-naming contract.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_#]+)*$")

#: Default histogram reservoir (most recent observations kept).
DEFAULT_RESERVOIR = 512

#: Quantiles reported by every histogram snapshot.
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric names are dotted lowercase identifiers, got {name!r}"
        )
    return name


class Counter:
    """A monotone counter (lossless under concurrent increments)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bounded histogram: exact count/sum/min/max, reservoir quantiles.

    The reservoir keeps the ``reservoir_size`` most recent observations
    (a deque, so memory is bounded no matter how long the process
    serves); quantiles are computed over it by sorting at read time —
    reads are rare (scrapes/snapshots), writes are the hot path.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_reservoir", "_lock")

    def __init__(self, name: str, reservoir_size: int = DEFAULT_RESERVOIR) -> None:
        if reservoir_size < 1:
            raise ValueError("histogram reservoir must hold >= 1 observation")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._reservoir: deque = deque(maxlen=reservoir_size)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self._reservoir.append(value)

    def percentile(self, q: float) -> float:
        """The ``q`` quantile (0..1) over the reservoir (nearest-rank)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            data = sorted(self._reservoir)
        if not data:
            return 0.0
        rank = min(len(data) - 1, max(0, math.ceil(q * len(data)) - 1))
        return data[rank]

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            data = sorted(self._reservoir)
            count, total = self.count, self.total
            lo = self.min if count else 0.0
            hi = self.max if count else 0.0
        out = {"count": count, "sum": total, "min": lo, "max": hi}
        for label, q in QUANTILES:
            if not data:
                out[label] = 0.0
            else:
                rank = min(len(data) - 1, max(0, math.ceil(q * len(data)) - 1))
                out[label] = data[rank]
        return out


class MetricsRegistry:
    """Name → metric table plus the absorbed-counter sources.

    ``counter()`` / ``gauge()`` / ``histogram()`` are get-or-create and
    type-checked: one dotted name is one metric for the whole process.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._sources: Dict[str, Callable[[], Optional[Dict[str, Any]]]] = {}
        self._lock = threading.Lock()

    # -- native metrics ------------------------------------------------------

    def _get_or_create(self, name: str, cls, *args):
        _check_name(name)
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, *args)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, reservoir_size: int = DEFAULT_RESERVOIR
    ) -> Histogram:
        return self._get_or_create(name, Histogram, reservoir_size)

    def metrics(self) -> List[str]:
        """Registered native metric names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    # -- absorbed sources ----------------------------------------------------

    def register_source(
        self,
        name: str,
        fn: Callable[[], Dict[str, Any]],
        weak: bool = False,
    ) -> str:
        """Register a snapshot callable under the ``name`` prefix.

        With ``weak=True`` (for per-instance caches registered at
        construction), ``fn`` must be a bound method; only a weak
        reference to it is kept, so registration never extends the
        owner's lifetime.  If ``name`` is already taken by a *live*
        source, a ``#2``/``#3``… suffix disambiguates — several
        evaluator state caches can coexist — and the assigned name is
        returned.
        """
        _check_name(name)
        if weak:
            ref = weakref.WeakMethod(fn)

            def call() -> Optional[Dict[str, Any]]:
                target = ref()
                return None if target is None else target()

        else:
            def call() -> Optional[Dict[str, Any]]:
                return fn()

        with self._lock:
            self._prune_locked()
            assigned = name
            serial = 1
            while assigned in self._sources:
                serial += 1
                assigned = f"{name}#{serial}"
            self._sources[assigned] = call
            return assigned

    def _prune_locked(self) -> None:
        dead = [n for n, fn in self._sources.items() if fn() is None]
        for n in dead:
            del self._sources[n]

    def sources(self) -> List[str]:
        """Names of the live registered sources, sorted."""
        with self._lock:
            self._prune_locked()
            return sorted(self._sources)

    # -- reads ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """One flat dict of every metric and absorbed source value.

        Counters and gauges appear under their own names; a histogram
        ``h`` expands to ``h.count`` / ``h.sum`` / ``h.min`` / ``h.max``
        / ``h.p50`` / ``h.p95`` / ``h.p99``; a source ``s`` returning
        ``{"hits": 3}`` appears as ``s.hits``.
        """
        with self._lock:
            metrics = list(self._metrics.values())
            sources = list(self._sources.items())
        out: Dict[str, Any] = {}
        for metric in metrics:
            if isinstance(metric, Histogram):
                for key, value in metric.snapshot().items():
                    out[f"{metric.name}.{key}"] = value
            else:
                out[metric.name] = metric.value
        for prefix, fn in sources:
            values = fn()
            if values is None:
                continue
            for key, value in values.items():
                out[f"{prefix}.{key}"] = value
        return out

    def prometheus_text(self) -> str:
        """The snapshot in Prometheus text exposition format.

        Dots (and ``#`` instance suffixes) become underscores; native
        counters get ``# TYPE ... counter``, everything else is exported
        as a gauge.  One scrapeable page — the pull-side complement of
        the push-side :class:`~repro.obs.sink.TelemetryLog`.
        """
        with self._lock:
            native = {name: metric for name, metric in self._metrics.items()}
        lines: List[str] = []
        for name, value in sorted(self.snapshot().items()):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            flat = name.replace(".", "_").replace("#", "_")
            kind = "counter" if isinstance(native.get(name), Counter) else "gauge"
            lines.append(f"# TYPE {flat} {kind}")
            lines.append(f"{flat} {value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every native metric (sources stay registered).

        Benchmark/test isolation: both modes of the overhead gate start
        from an empty registry.
        """
        with self._lock:
            self._metrics.clear()
            self._prune_locked()


#: The process-wide registry every layer records into.
REGISTRY = MetricsRegistry()
