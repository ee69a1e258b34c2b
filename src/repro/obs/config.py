"""The process-wide observability switch and active telemetry sink.

Kept in its own module (instead of ``repro.obs.__init__``) so the hot
paths — :func:`repro.obs.tracer.trace` is called from every Engine verb,
every :meth:`~repro.search.common.SearchTask.step`, and every kernel
compile — can read one module-global bool without touching the package
namespace, and so :mod:`repro.obs.tracer` / :mod:`repro.obs.sink` can
share the state without importing each other.

The contract of the disabled path (the default): ``enabled()`` is a
plain global read, ``trace(...)`` returns a shared no-op context
manager, and nothing is recorded anywhere.  ``benchmarks/bench_obs.py``
gates the per-call cost of a disabled ``trace`` (2 µs by default); its
enabled/disabled ratio compares tracing on and off, so nothing measures
the disabled path against uninstrumented code.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

#: Sentinel distinguishing "leave unchanged" from an explicit ``None``.
UNSET = object()

_lock = threading.Lock()
_enabled = False
_sink: Optional[Any] = None


def enabled() -> bool:
    """Whether observability (spans + telemetry emission) is on."""
    return _enabled


def sink() -> Optional[Any]:
    """The active telemetry sink (``None`` when not configured)."""
    return _sink


def set_state(enabled: Any = UNSET, sink: Any = UNSET) -> None:
    """Atomically update the global switch and/or the sink.

    Used by :func:`repro.obs.configure`; takes the lock so concurrent
    reconfiguration (tests, benchmarks) can't interleave half-states.
    Readers stay lock-free — a span racing a reconfigure sees either the
    old or the new state, both valid.
    """
    global _enabled, _sink
    with _lock:
        if enabled is not UNSET:
            _enabled = bool(enabled)
        if sink is not UNSET:
            _sink = sink


def emit(record: Dict[str, Any]) -> None:
    """Write one telemetry record to the sink, if one is configured.

    Snapshot the sink reference first: a concurrent ``configure`` must
    not let this call see a half-closed sink being swapped out.
    """
    target = _sink
    if target is not None and _enabled:
        target.write(record)
