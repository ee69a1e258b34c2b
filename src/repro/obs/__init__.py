"""repro.obs — unified tracing + metrics with durable telemetry.

The stack's telemetry used to be fragmented: ``SearchStats`` counters,
``ingest_stats`` snapshots, per-cache hit/miss tallies, and a
``timings`` dict that mostly held ``total_s``.  This package unifies all
of it behind one switch::

    from repro import obs

    obs.configure(enabled=True, telemetry="run.jsonl")
    report = Engine().generate(log)
    print(report.to_dict()["trace"])       # per-phase spans
    print(obs.snapshot()["search.iterations"])
    print(obs.prometheus_text())
    obs.configure(enabled=False, telemetry=None)

Three pieces:

* :data:`REGISTRY` (:mod:`repro.obs.metrics`) — process-wide counters,
  gauges, and bounded histograms under stable dotted names, plus
  *sources* that absorb the pre-existing ad-hoc counters (ingest memo
  tables, interface caches, kernel stats) at snapshot time without
  touching their hot paths.
* :func:`trace` (:mod:`repro.obs.tracer`) — span context managers
  instrumenting every layer (engine verbs, serving phases, search
  steps, kernel compiles).  Disabled, a trace call is one global check
  returning a shared no-op.
* :class:`TelemetryLog` (:mod:`repro.obs.sink`) — the durable JSONL
  stream of spans and report envelopes, for replaying the envelopes a
  run delivered.

Everything hangs off :func:`configure`; the default is **disabled** and
the disabled path is near-zero cost (gated by
``benchmarks/bench_obs.py --strict``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Optional

from . import config as _config
from .config import UNSET, enabled
from .metrics import (
    DEFAULT_RESERVOIR,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from .sink import MemoryTelemetry, TelemetryLog, read_telemetry
from .tracer import Span, collecting, trace

__all__ = [
    "configure",
    "observed",
    "enabled",
    "telemetry_sink",
    "emit_report",
    "snapshot",
    "prometheus_text",
    "reset_metrics",
    "trace",
    "collecting",
    "Span",
    "REGISTRY",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_RESERVOIR",
    "TelemetryLog",
    "MemoryTelemetry",
    "read_telemetry",
]

#: Whether the currently-configured sink was opened (from a path) by
#: :func:`configure` — only then does reconfiguration close it.
_owns_sink = False


def configure(enabled: Any = UNSET, telemetry: Any = UNSET) -> Dict[str, Any]:
    """Set the global observability switch and/or the telemetry sink.

    Args:
        enabled: turn span tracing + telemetry emission on or off
            (omit to leave unchanged).  Metrics *reads* (``snapshot()``,
            absorbed sources) work regardless — the switch gates the
            recording paths.
        telemetry: where telemetry records go — a path (a
            :class:`TelemetryLog` is opened and owned: replacing it
            later closes it), a sink object (anything with
            ``write(dict)``; caller owns it), or ``None`` to detach.
            Omit to leave unchanged.

    Returns:
        ``{"enabled": bool, "telemetry": sink-or-None}`` after applying.
    """
    global _owns_sink
    if telemetry is not UNSET:
        previous = _config.sink()
        if isinstance(telemetry, (str, bytes)) or hasattr(telemetry, "__fspath__"):
            sink: Optional[Any] = TelemetryLog(telemetry)
            owns = True
        else:
            sink = telemetry
            owns = False
        _config.set_state(sink=sink)
        if _owns_sink and previous is not None and previous is not sink:
            previous.close()
        _owns_sink = owns
    if enabled is not UNSET:
        _config.set_state(enabled=enabled)
        sink = _config.sink()
        if not _config.enabled() and sink is not None:
            # Turning recording off is a natural read boundary: push any
            # buffered records out so the file is complete right away.
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()
    return {"enabled": _config.enabled(), "telemetry": _config.sink()}


@contextmanager
def observed(enabled: bool = True, telemetry: Any = UNSET):
    """Temporarily reconfigure observability (restores the prior state).

    The benchmark/test idiom::

        with obs.observed(True, telemetry=sink):
            engine.generate(log)
    """
    prior_enabled = _config.enabled()
    prior_sink = _config.sink()
    global _owns_sink
    prior_owns = _owns_sink
    if telemetry is not UNSET:
        _owns_sink = False  # never close the caller's prior sink here
    configure(enabled=enabled, telemetry=telemetry)
    try:
        yield _config.sink()
    finally:
        current = _config.sink()
        if _owns_sink and current is not None and current is not prior_sink:
            current.close()
        _config.set_state(enabled=prior_enabled, sink=prior_sink)
        _owns_sink = prior_owns


def telemetry_sink() -> Optional[Any]:
    """The active telemetry sink (``None`` when detached)."""
    return _config.sink()


def emit_report(report: Any, verb: str) -> None:
    """Write one ``report`` telemetry record for an Engine verb delivery.

    The payload is exactly ``report.to_dict()`` — reading the JSONL line
    back replays the identical envelope.  No-op when disabled or no sink
    is configured.
    """
    if not _config.enabled() or _config.sink() is None:
        return
    _config.emit(
        {
            "type": "report",
            "ts": time.time(),
            "verb": verb,
            "report": report.to_dict(),
        }
    )
    REGISTRY.counter("telemetry.reports").inc()


def snapshot() -> Dict[str, Any]:
    """Flat name → value snapshot of every metric and absorbed source."""
    return REGISTRY.snapshot()


def prometheus_text() -> str:
    """The registry snapshot in Prometheus text exposition format."""
    return REGISTRY.prometheus_text()


def reset_metrics() -> None:
    """Drop all native metrics (absorbed sources stay registered)."""
    REGISTRY.reset()
