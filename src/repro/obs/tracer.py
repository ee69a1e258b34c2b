"""The low-overhead span tracer.

A *span* is one timed region of work with a dotted name and optional
tags::

    with trace("engine.generate", strategy="mcts"):
        ...

On exit the span becomes a plain dict (``name`` / ``ts`` /
``duration_s`` / ``tags``) that is fanned out three ways:

* observed into the registry histogram ``span.<name>`` (p50/p95/p99
  latency per phase, for free);
* appended to every *collector* active on the current thread
  (:func:`collecting` — how a :class:`~repro.engine.GenerationReport`
  gathers the spans of exactly its own call, even with many sessions in
  flight);
* written to the configured telemetry sink, one JSONL record per span —
  the durable replay log.

Disabled (the default), :func:`trace` returns a shared no-op context
manager after a single module-global check: the instrumented hot paths
pay one function call and one ``with`` — nanoseconds — which the
``bench_obs`` micro-gate bounds per call.

Collectors are **thread-local** by design, so spans recorded on one
thread (a caller sharing the Engine) never leak into a report collected
on another.  An Engine verb collects every span of its own call, so a
report carries only its own session's spans, also when one thread
serves several sessions in turn.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from . import config
from .metrics import REGISTRY


class _NoopSpan:
    """The shared do-nothing span returned while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()

_TLS = threading.local()


def _collectors() -> List[List[Dict[str, Any]]]:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


class Span:
    """One live traced region (use via :func:`trace`)."""

    __slots__ = ("name", "tags", "started_at", "_t0")

    def __init__(self, name: str, tags: Dict[str, Any]) -> None:
        self.name = name
        self.tags = tags
        self.started_at = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        duration = time.perf_counter() - self._t0
        record: Dict[str, Any] = {
            "name": self.name,
            "ts": self.started_at,
            "duration_s": duration,
        }
        if self.tags:
            record["tags"] = self.tags
        REGISTRY.histogram(f"span.{self.name}").observe(duration)
        for collector in _collectors():
            collector.append(record)
        config.emit({"type": "span", **record})
        return False


def trace(name: str, **tags: Any):
    """A span context manager (or the shared no-op when disabled).

    The enabled/disabled decision is taken at entry: a span opened while
    enabled records on exit even if observability is switched off
    mid-flight (and vice versa a no-op stays a no-op) — spans are never
    half-recorded.
    """
    if not config.enabled():
        return _NOOP
    return Span(name, tags)


@contextmanager
def collecting(target: Optional[List[Dict[str, Any]]] = None):
    """Collect every span finished on this thread into ``target``.

    Yields the target list (a fresh one when not given).  Collectors
    nest: an inner collector does not steal spans from an outer one —
    both receive them — so a report's collector and a diagnostic
    test collector can coexist.
    """
    spans: List[Dict[str, Any]] = [] if target is None else target
    stack = _collectors()
    stack.append(spans)
    try:
        yield spans
    finally:
        stack.pop()
