"""Append-only query-log ingestion: :class:`LogStream` and :class:`SessionRouter`.

Real analysis logs arrive as per-session append-only streams of SQL
text, with heavy repetition (analysts re-run near-identical queries).
:class:`LogStream` ingests such a stream while parsing each distinct SQL
string exactly once, and precomputes the per-query canonical keys the
prefix-matching :class:`~repro.serve.cache.InterfaceCache` needs.
:class:`SessionRouter` shards many concurrent sessions over independent
lock-protected stream groups, so ingestion scales with the shard count
instead of serializing on one global lock.
"""

from __future__ import annotations

import threading
import time
import zlib
from bisect import bisect_left, bisect_right, insort
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..difftree import wrap_ast
from ..memo import INGEST, BoundedLRU
from ..sqlast import Node, parse
from .cache import log_key_fast

QueryLike = Union[str, Node]


def _normalized_text(sql: str) -> Optional[str]:
    """Whitespace-collapsed form of ``sql``, or None when unsafe/identical.

    The normalized-duplicate dedup tier keys the parse cache under this
    form too, so a re-run that differs only in spacing/line breaks skips
    the parser.  Quoted strings and comments make whitespace significant,
    so any query containing them opts out (exact-text tier still applies).
    """
    if "'" in sql or '"' in sql or "--" in sql:
        return None
    collapsed = " ".join(sql.split())
    return collapsed if collapsed != sql else None


class LogStream:
    """One session's append-only SQL log with parse-once AST caching.

    Args:
        parse_cache: optional shared ``sql text -> AST`` cache (a dict or
            a :class:`~repro.memo.BoundedLRU`).  Sessions routed to the
            same shard share one, so a query text seen in any of them is
            not parsed twice while it stays cached.
    """

    def __init__(
        self, parse_cache: Optional[Union[Dict[str, Node], BoundedLRU]] = None
    ) -> None:
        self._sql: List[str] = []
        self._asts: List[Node] = []
        self._query_keys: List[str] = []
        #: Per-entry ingest timestamps (``time.monotonic()``), the
        #: material of age-based :meth:`retain` windows.  Nondecreasing
        #: by construction, so an age cutoff is one bisect.
        self._times: List[float] = []
        #: Sorted distinct per-query keys, maintained per append — the
        #: material of :meth:`log_key`.  The digest is cached and only
        #: invalidated when the distinct *set* changes (duplicate appends
        #: and duplicate removals leave it valid), so keying a session is
        #: O(1) amortized instead of re-keying the whole log per probe.
        self._distinct_keys: List[str] = []
        #: Multiplicity per distinct key — lets :meth:`remove` retire a
        #: key from the sorted set exactly when its last occurrence goes,
        #: without rescanning the log.
        self._key_counts: Dict[str, int] = {}
        self._log_key: Optional[str] = None
        self._parse_cache = parse_cache if parse_cache is not None else {}
        #: Ingestion counters: total appends vs. appends that skipped the
        #: parser because the text was already in the cache.
        self.parses = 0
        self.parse_hits = 0
        #: Appends served by the normalized-duplicate tier (same query
        #: modulo whitespace — a re-parse skipped without an exact match).
        self.dedup_hits = 0

    def __len__(self) -> int:
        return len(self._asts)

    @property
    def version(self) -> int:
        """Monotone stream version — the number of queries ingested."""
        return len(self._asts)

    def append(self, *queries: QueryLike) -> int:
        """Ingest queries (SQL text or pre-parsed ASTs); returns the new length.

        Atomic: every query is parsed and keyed before any is committed,
        so a parse error mid-batch leaves the log unchanged instead of
        permanently ingesting the batch's leading queries.
        """
        staged = []
        for query in queries:
            if isinstance(query, Node):
                ast = query
                parsed_fresh = False
                normalized_hit = False
            elif isinstance(query, str):
                # Fingerprint-first dedup: exact text, then the
                # whitespace-normalized form, then (and only then) parse.
                normalized_hit = False
                ast = self._parse_cache.get(query)
                norm = None
                if ast is None:
                    norm = _normalized_text(query)
                    if norm is not None:
                        ast = self._parse_cache.get(norm)
                        normalized_hit = ast is not None
                parsed_fresh = ast is None
                if parsed_fresh:
                    ast = parse(query)
                if parsed_fresh or normalized_hit:
                    self._parse_cache[query] = ast
                if norm is not None and norm not in self._parse_cache:
                    self._parse_cache[norm] = ast
            else:
                raise TypeError(f"query must be SQL text or AST, got {type(query)}")
            staged.append(
                (query, ast, parsed_fresh, normalized_hit, wrap_ast(ast).canonical_key)
            )
        for query, ast, parsed_fresh, normalized_hit, key in staged:
            if isinstance(query, str):
                if parsed_fresh:
                    self.parses += 1
                else:
                    self.parse_hits += 1
                    if normalized_hit:
                        self.dedup_hits += 1
                        INGEST.text_dedup_hits += 1
            self._sql.append(query if isinstance(query, str) else "")
            self._asts.append(ast)
            self._query_keys.append(key)
            self._times.append(time.monotonic())
            count = self._key_counts.get(key, 0)
            self._key_counts[key] = count + 1
            if count == 0:
                insort(self._distinct_keys, key)
                self._log_key = None
        return len(self._asts)

    def log_key(self) -> str:
        """The session's current log fingerprint (incrementally maintained).

        Same digest as ``cache.log_key(self.asts())``, but O(1) when the
        distinct-key set hasn't grown since the last probe — the
        per-append re-keying of the whole log used to dominate ingest
        time.
        """
        if not self._asts:
            raise ValueError("need at least one input query")
        key = self._log_key
        if key is None:
            key = self._log_key = log_key_fast(self._distinct_keys)
        return key

    def asts(self, end: Optional[int] = None) -> Tuple[Node, ...]:
        """The ingested ASTs (optionally only the first ``end``)."""
        return tuple(self._asts[: len(self._asts) if end is None else end])

    def ast(self, index: int) -> Node:
        """The AST at ``index`` (negative indexes allowed), without copying."""
        return self._asts[index]

    def sql(self) -> Tuple[str, ...]:
        """The raw SQL strings (empty string for AST-only appends)."""
        return tuple(self._sql)

    def query_keys(self, end: Optional[int] = None) -> Tuple[str, ...]:
        """Per-query canonical keys, in log order (prefix-cache material)."""
        return tuple(
            self._query_keys[: len(self._query_keys) if end is None else end]
        )

    def truncate(self, length: int) -> int:
        """Roll the log back to its first ``length`` queries.

        The scheduler's undo for a chunk whose interface was never
        delivered (cancelled or failed script): appended-but-unserved
        queries must not pollute the session's log.  Returns the new
        length; a ``length`` at or beyond the current end is a no-op.
        """
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        if length < len(self._asts):
            del self._sql[length:]
            del self._asts[length:]
            del self._query_keys[length:]
            del self._times[length:]
            self._key_counts = {}
            for key in self._query_keys:
                self._key_counts[key] = self._key_counts.get(key, 0) + 1
            self._distinct_keys = sorted(self._key_counts)
            self._log_key = None
        return len(self._asts)

    def remove(self, indices: Iterable[int]) -> Tuple[int, ...]:
        """Delete the queries at ``indices``; returns them sorted ascending.

        Survivors keep their relative order.  Bounded recompute: each
        removal retires its key from the sorted distinct set only when
        its *last* occurrence goes (multiplicity-counted), and the log
        fingerprint digest is invalidated only when the distinct set
        actually shrank — removing one copy of a repeated query leaves
        :meth:`log_key` cached.
        """
        length = len(self._asts)
        normalized = sorted({i if i >= 0 else i + length for i in indices})
        if not normalized:
            return ()
        if normalized[0] < 0 or normalized[-1] >= length:
            raise IndexError(
                f"remove indices {normalized} outside the {length}-query log"
            )
        for i in reversed(normalized):
            key = self._query_keys[i]
            del self._sql[i]
            del self._asts[i]
            del self._query_keys[i]
            del self._times[i]
            count = self._key_counts[key] - 1
            if count:
                self._key_counts[key] = count
            else:
                del self._key_counts[key]
                del self._distinct_keys[bisect_left(self._distinct_keys, key)]
                self._log_key = None
        return tuple(normalized)

    def retain(
        self,
        last_n: Optional[int] = None,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Tuple[int, ...]:
        """Keep only a retention window of the log; returns the dropped indices.

        Args:
            last_n: keep at most the ``last_n`` most recent queries.
            max_age_s: drop queries ingested more than this many seconds
                ago (by the stream's monotonic clock).
            now: clock override for tests (default ``time.monotonic()``).

        Both bounds may be combined (the stricter wins).  Retention only
        ever retires a *prefix* — appends are time-ordered — so the
        recompute downstream carriers pay is bounded by one rejoined
        boundary pair (see ``CompiledSequence.without``).
        """
        if last_n is None and max_age_s is None:
            raise ValueError("retain() needs last_n and/or max_age_s")
        drop_before = 0
        if last_n is not None:
            if last_n < 0:
                raise ValueError(f"last_n must be >= 0, got {last_n}")
            drop_before = max(drop_before, len(self._asts) - last_n)
        if max_age_s is not None:
            if max_age_s < 0:
                raise ValueError(f"max_age_s must be >= 0, got {max_age_s}")
            cutoff = (time.monotonic() if now is None else now) - max_age_s
            drop_before = max(drop_before, bisect_right(self._times, cutoff))
        if drop_before <= 0:
            return ()
        return self.remove(range(drop_before))


#: Entries per shard parse cache.  Bounded because the cache outlives the
#: sessions that filled it: dropped and evicted sessions' texts (and the
#: ASTs they keep alive) age out instead of accumulating.
SHARD_PARSE_CACHE_CAPACITY = 1024


class _Shard:
    """One router shard: a lock, a shared parse cache, and its streams."""

    __slots__ = ("lock", "parse_cache", "streams")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.parse_cache = BoundedLRU(SHARD_PARSE_CACHE_CAPACITY)
        self.streams: Dict[str, LogStream] = {}


class SessionRouter:
    """Shards per-session :class:`LogStream` instances by session id.

    Sharding uses ``crc32`` of the session id (Python's builtin ``hash``
    is salted per process, which would re-shuffle sessions across
    restarts).  Each shard holds its own lock and parse cache, so
    concurrent appends from sessions on different shards never contend.
    """

    def __init__(
        self,
        num_shards: int = 8,
        stream_factory: Callable[..., LogStream] = LogStream,
    ) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self._shards = [_Shard() for _ in range(num_shards)]
        self._stream_factory = stream_factory
        from ..obs import REGISTRY

        REGISTRY.register_source("serve.router", self.ingest_totals, weak=True)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def shard_of(self, session_id: str) -> int:
        """Stable shard index of a session (same across processes/runs)."""
        return zlib.crc32(session_id.encode("utf-8")) % len(self._shards)

    def stream(self, session_id: str) -> LogStream:
        """The session's stream, created on first use."""
        shard = self._shards[self.shard_of(session_id)]
        with shard.lock:
            stream = shard.streams.get(session_id)
            if stream is None:
                stream = self._stream_factory(parse_cache=shard.parse_cache)
                shard.streams[session_id] = stream
            return stream

    def append(self, session_id: str, *queries: QueryLike) -> int:
        """Append to a session's log; returns the stream's new length."""
        shard = self._shards[self.shard_of(session_id)]
        with shard.lock:
            stream = shard.streams.get(session_id)
            if stream is None:
                stream = self._stream_factory(parse_cache=shard.parse_cache)
                shard.streams[session_id] = stream
            return stream.append(*queries)

    def sessions(self) -> List[str]:
        """All live session ids (across shards)."""
        out: List[str] = []
        for shard in self._shards:
            with shard.lock:
                out.extend(shard.streams)
        return out

    def ingest_totals(self) -> Dict[str, int]:
        """Summed per-stream ingest counters across every live session."""
        totals = {"stream_parses": 0, "stream_parse_hits": 0, "stream_dedup_hits": 0}
        for shard in self._shards:
            with shard.lock:
                for stream in shard.streams.values():
                    totals["stream_parses"] += stream.parses
                    totals["stream_parse_hits"] += stream.parse_hits
                    totals["stream_dedup_hits"] += stream.dedup_hits
        return totals

    def truncate(self, session_id: str, length: int) -> int:
        """Roll a session's log back to ``length`` queries (0 if absent)."""
        shard = self._shards[self.shard_of(session_id)]
        with shard.lock:
            stream = shard.streams.get(session_id)
            if stream is None:
                return 0
            return stream.truncate(length)

    def remove(self, session_id: str, indices: Iterable[int]) -> Tuple[int, ...]:
        """Delete queries from a session's log (empty tuple if absent)."""
        shard = self._shards[self.shard_of(session_id)]
        with shard.lock:
            stream = shard.streams.get(session_id)
            if stream is None:
                return ()
            return stream.remove(indices)

    def retain(
        self,
        session_id: str,
        last_n: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> Tuple[int, ...]:
        """Apply a retention window to a session's log (see
        :meth:`LogStream.retain`); returns the dropped indices."""
        shard = self._shards[self.shard_of(session_id)]
        with shard.lock:
            stream = shard.streams.get(session_id)
            if stream is None:
                return ()
            return stream.retain(last_n=last_n, max_age_s=max_age_s)

    def drop(self, session_id: str) -> bool:
        """Forget a session's stream; returns whether it existed."""
        shard = self._shards[self.shard_of(session_id)]
        with shard.lock:
            return shard.streams.pop(session_id, None) is not None
