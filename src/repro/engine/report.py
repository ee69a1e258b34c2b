"""The structured result envelope every Engine entry point returns.

:class:`GenerationReport` wraps the rich in-process
:class:`~repro.core.GeneratedInterface` with the serving metadata a
caller needs to interpret it: where the answer
came from (fresh search vs. cache), how it was warm-started, what the
search did (iterations, kernel counters), and how long each phase took.
``to_dict()`` flattens the whole envelope into plain JSON-serializable
types — the stable wire contract.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core import GeneratedInterface

#: Bump when the ``to_dict`` wire shape changes.  Version 2 added the
#: ``trace`` section and guaranteed per-phase ``timings`` keys; version
#: 3 added ``provenance.snapshot`` (set when the session was rehydrated
#: from a durable snapshot); version 4 added ``provenance.carry`` (set
#: when the search rebased a carried tree — nodes carried / invalidated
#: / re-keyed / reopened).  Versions 2-4 were additive; version 5 removed
#: the per-stream parse counters from ``provenance.ingest``, version 6
#: removed the admission-queue wait from ``scheduling``, and version 7
#: removed the ``scheduling`` section with the multi-session scheduler.
#: Versions 5-7 are not additive.
REPORT_SCHEMA_VERSION = 7

#: Phase keys every report's ``timings`` dict carries (0.0 when a phase
#: did not run for that verb — e.g. a cache hit searches for 0 s).
TIMING_PHASES = ("parse_s", "difftree_s", "search_s", "render_s")

#: Where a report's interface came from.
SOURCES = ("search", "cache")


def _jsonable(value: Any) -> Any:
    """Recursively convert dataclasses/tuples into JSON-native types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass
class GenerationReport:
    """One generation outcome plus its serving provenance.

    Attributes:
        result: the full in-process interface (difftree, widget tree,
            search diagnostics) — everything the legacy API returned.
        source: ``"search"`` (a search ran for this call) or ``"cache"``
            (served from :class:`~repro.serve.InterfaceCache` with zero
            new search work).
        strategy: the search strategy that produced the interface (for
            cache hits: the strategy of the original run).
        session_id: serving session the report belongs to, if any.
        log_size: how many queries the interface expresses.
        warm_states_seeded: warm-start states injected into this call's
            search (0 for cold runs and cache hits).
        cache_stats: snapshot of the owning cache's counters at serve
            time (empty when the entry point has no cache).
        ingest_stats: snapshot of the process-wide ingest counters
            (:data:`repro.memo.INGEST`) at serve time — parses, intern
            hits, anti-unify/graft/expressibility memo hits, and
            dedup-skipped appends (empty when the entry point does not
            sample them).  Additive to schema_version 1.
        timings: wall-clock phases in seconds; always has ``total_s``
            plus every key in :data:`TIMING_PHASES` (defaulted to 0.0
            for phases that did not run).
        trace: per-phase span records collected while producing this
            interface when :mod:`repro.obs` is enabled (empty
            otherwise).  Each record is
            ``{"name", "ts", "duration_s", "tags"?}``.  Additive to
            schema_version 2.
        snapshot: restore provenance when the serving session was
            rehydrated from a durable
            :class:`~repro.serve.SessionSnapshot` (``None`` for never-
            restored sessions): the restored generation and snapshot
            schema version.  Additive to schema_version 3.
        carry: search-tree carry provenance when this call's search
            rebased a carried tree (``None`` for cold runs, cache hits,
            and gate-off runs): nodes carried / invalidated / re-keyed /
            reopened plus the append size the rebase diffed.  Additive
            to schema_version 4.
    """

    result: GeneratedInterface
    source: str = "search"
    strategy: str = ""
    session_id: Optional[str] = None
    log_size: int = 0
    warm_states_seeded: int = 0
    cache_stats: Dict[str, int] = field(default_factory=dict)
    ingest_stats: Dict[str, int] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    trace: List[Dict[str, Any]] = field(default_factory=list)
    snapshot: Optional[Dict[str, Any]] = None
    carry: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {self.source!r}")
        for phase in TIMING_PHASES:
            self.timings.setdefault(phase, 0.0)

    # -- convenience passthroughs (the legacy surface) ----------------------

    @property
    def cost(self) -> float:
        return self.result.cost

    @property
    def feasible(self) -> bool:
        return self.result.best.breakdown.feasible

    @property
    def ascii_art(self) -> str:
        return self.result.ascii_art

    @property
    def difftree(self):
        return self.result.difftree

    @property
    def widget_tree(self):
        return self.result.widget_tree

    @property
    def search(self):
        """The underlying :class:`~repro.search.SearchResult`."""
        return self.result.search

    def html(self, title: str = "Generated interface") -> str:
        return self.result.html(title=title)

    # -- the wire contract --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-serializable envelope (stable keys, plain types)."""
        search = self.result.search
        history: List[Tuple[float, float]] = search.history
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "source": self.source,
            "strategy": self.strategy or search.strategy,
            "session_id": self.session_id,
            "log_size": self.log_size or len(self.result.queries),
            "cost": self.cost,
            "feasible": self.feasible,
            "ascii_art": self.ascii_art,
            "screen": _jsonable(self.result.screen),
            "breakdown": _jsonable(self.result.best.breakdown),
            "search": {
                "strategy": search.strategy,
                "elapsed_s": search.elapsed,
                "history": _jsonable(history),
                "stats": _jsonable(search.stats),
            },
            "provenance": {
                "source": self.source,
                "warm_states_seeded": self.warm_states_seeded,
                "cache": dict(self.cache_stats),
                "ingest": dict(self.ingest_stats),
                "snapshot": (
                    _jsonable(dict(self.snapshot))
                    if self.snapshot is not None
                    else None
                ),
                "carry": (
                    _jsonable(dict(self.carry))
                    if self.carry is not None
                    else None
                ),
            },
            "timings": dict(self.timings),
            "trace": _jsonable(self.trace),
        }
