"""Shared memoization infrastructure for the hash-consed ingest path.

Structural interning (:mod:`repro.sqlast.nodes`, :mod:`repro.difftree.dtnodes`)
makes equal subtrees *identical* objects, which turns every pure function
over trees into a memoization candidate: ``parse``, ``wrap_ast``,
``normalize``, ``anti_unify``/``graft``, ``expresses``/``assignment_for``
and the matcher's first assignment per ``ALL`` slot, ``to_sql``, and the
widget layer's ``domain_of``, ``candidates_for`` and option labels all
consult bounded LRU tables keyed by interned nodes, so ingestion cost
tracks *distinct structure* instead of raw log length, and a search
state re-derives only the subtree its rule move rewrote.

This module owns the pieces those layers share:

* :class:`BoundedLRU` — the lock-protected LRU dict (moved here from
  :mod:`repro.cost.kernel`, which re-exports it) used by every memo table.
* :class:`IngestCounters` / :data:`INGEST` — process-wide counters
  (parses, intern hits, memo hits, dedup-skipped appends) surfaced in
  :class:`~repro.engine.report.GenerationReport` envelopes.
* The ``carry`` **gate**, held in a context-local record: :func:`carry`
  forces it inside a ``with`` block and :func:`carry_enabled` reads it.
  The memoized functions have no gate: they always consult their tables,
  and the unmemoized parity oracles live with the tests.
* :func:`clear_memo_caches` — drops every registered memo table (parity
  tests use it so the memoized functions start cold).

Memoized functions are pure, so warm caches never change results — only
how fast they are produced.  Counters are plain ints bumped without a
lock; under concurrent ingestion they are approximate (monotone, may
slightly undercount), which is fine for the diagnostics they feed.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
)


class BoundedLRU:
    """A small dict with least-recently-used eviction.

    Replaces wholesale ``.clear()`` eviction: long serving sessions evict
    one cold entry at a time instead of dropping everything at once.
    Reads refresh recency (Python dicts preserve insertion order, so the
    oldest entry is the first key).

    Thread-safe (like :class:`repro.serve.cache.InterfaceCache`): the
    recency-refresh on ``get`` and the evicting ``__setitem__`` are
    pop-then-reinsert sequences that corrupt the dict if interleaved, so
    every operation holds the lock — evaluators, cost models, and the
    ingest memo tables shared by callers on several threads (one Engine
    shared across threads) stay consistent.  ``values()``/``items()`` return point-in-time snapshots
    (callers iterate without holding the lock).

    Every table keeps uniform ``hits`` / ``misses`` / ``evictions``
    counters, snapshotted by :meth:`stats`.  Passing ``name`` registers
    :meth:`stats` as a weak source in the observability registry
    (:data:`repro.obs.REGISTRY`) under ``cache.<name>`` — every memo
    table and cache in the process shows up in one metrics snapshot
    without any scrape-time plumbing at the call sites.
    """

    __slots__ = (
        "capacity",
        "name",
        "hits",
        "misses",
        "evictions",
        "_data",
        "_lock",
        "__weakref__",
    )

    def __init__(self, capacity: int, name: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError("LRU capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: Dict[Any, Any] = {}
        self._lock = threading.Lock()
        if name is not None:
            from .obs import REGISTRY  # local: keeps module import light

            REGISTRY.register_source(f"cache.{name}", self.stats, weak=True)

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            if key not in self._data:
                self.misses += 1
                return default
            self.hits += 1
            value = self._data.pop(key)
            self._data[key] = value
            return value

    def stats(self) -> Dict[str, int]:
        """Uniform counter snapshot (stable keys, JSON-native values)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._data),
                "capacity": self.capacity,
            }

    def __setitem__(self, key: Any, value: Any) -> None:
        with self._lock:
            if key in self._data:
                del self._data[key]
            self._data[key] = value
            while len(self._data) > self.capacity:
                del self._data[next(iter(self._data))]
                self.evictions += 1

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def values(self):
        with self._lock:
            return list(self._data.values())

    def items(self):
        with self._lock:
            return list(self._data.items())

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


@dataclass
class IngestCounters:
    """Process-wide ingest instrumentation (see :data:`INGEST`).

    Attributes:
        parses: actual parser runs (``parse()`` memo misses).
        parse_memo_hits: ``parse()`` calls served by its memo (the one parse cache).
        node_intern_hits: AST :class:`~repro.sqlast.nodes.Node`
            constructions that returned an existing interned instance.
        dtnode_intern_hits: same, for difftree
            :class:`~repro.difftree.dtnodes.DTNode` constructions.
        wrap_memo_hits: ``wrap_ast()`` calls served from the memo.
        express_memo_hits: ``assignment_for``/``expresses`` memo hits.
        au_memo_hits: memoized ``anti_unify`` subproblem hits.
        graft_memo_hits: memoized top-level ``graft`` hits.
        dedup_skipped_appends: appended queries an existing difftree
            already expressed (``extend_difftree`` skipped the graft).
    """

    parses: int = 0
    parse_memo_hits: int = 0
    node_intern_hits: int = 0
    dtnode_intern_hits: int = 0
    wrap_memo_hits: int = 0
    express_memo_hits: int = 0
    au_memo_hits: int = 0
    graft_memo_hits: int = 0
    dedup_skipped_appends: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict snapshot (stable keys, JSON-native values)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


#: The process-wide counter instance every layer bumps.
INGEST = IngestCounters()

# Absorb the ingest counters into the observability registry: they stay
# plain unlocked ints on the hot paths, and appear as ``ingest.<field>``
# in every metrics snapshot / Prometheus scrape.
from .obs import REGISTRY as _OBS_REGISTRY  # noqa: E402  (after INGEST exists)

_OBS_REGISTRY.register_source("ingest", INGEST.snapshot)


# -- gates ----------------------------------------------------------------------
#
# One switch, held in a context-local record so a ``with`` block in one
# thread (a caller, a test) never flips the path another thread runs:
#
# * ``carry`` — carrying the MCTS search tree across a serving session's
#   appends (:mod:`repro.search.carry`).  Off, serving re-explores the
#   decision space from scratch: the maintainable-search parity oracle.


class _Gates(NamedTuple):
    carry: bool = True


_GATES: ContextVar[_Gates] = ContextVar("repro.memo.gates", default=_Gates())


def carry_enabled() -> bool:
    """Whether the cross-append search-tree carry is active (default: yes)."""
    return _GATES.get().carry


@contextmanager
def carry(enabled: bool) -> Iterator[None]:
    """Force the carry gate inside a ``with`` block (this context only)."""
    token = _GATES.set(_Gates(carry=bool(enabled)))
    try:
        yield
    finally:
        _GATES.reset(token)


# -- memo-table registry --------------------------------------------------------

_CLEARERS: List[Callable[[], None]] = []


def register_cache(clear: Callable[[], None]) -> None:
    """Register a cache-clearing callable for :func:`clear_memo_caches`."""
    _CLEARERS.append(clear)


def memo_table(capacity: int, name: Optional[str] = None) -> BoundedLRU:
    """A :class:`BoundedLRU` auto-registered with :func:`clear_memo_caches`.

    ``name`` additionally registers the table's counters in the
    observability registry (see :class:`BoundedLRU`).
    """
    table = BoundedLRU(capacity, name=name)
    register_cache(table.clear)
    return table


def clear_memo_caches() -> None:
    """Drop every registered memo table (intern tables are weak and stay)."""
    for clear in _CLEARERS:
        clear()
