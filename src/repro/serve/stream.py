"""Append-only query-log ingestion: :class:`LogStream` and :class:`SessionRouter`.

Real analysis logs arrive as per-session append-only streams of SQL
text, with heavy repetition.  :class:`LogStream` parses each appended
text through :func:`repro.sqlast.parse`, whose process-wide memo is the
one parse cache, and hash-consing lands a repeated query (or one that
differs only in whitespace) on the same interned AST.  The stream keeps
the per-query keys prefix lookup needs and caches its log key.
:class:`SessionRouter` maps session ids to streams under one lock.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..sqlast import Node, parse
from .cache import log_key, query_key

QueryLike = Union[str, Node]


class LogStream:
    """One session's append-only SQL log."""

    def __init__(self) -> None:
        self._sql: List[str] = []
        self._asts: List[Node] = []
        self._query_keys: List[str] = []
        #: :meth:`log_key` of the current log, until the next mutation.
        self._log_key: Optional[str] = None

    def __len__(self) -> int:
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
            elif isinstance(query, str):
                ast = parse(query)
            else:
                raise TypeError(f"query must be SQL text or AST, got {type(query)}")
            staged.append((query, ast, query_key(ast)))
        for query, ast, key in staged:
            self._sql.append(query if isinstance(query, str) else "")
            self._asts.append(ast)
            self._query_keys.append(key)
            self._log_key = None
        return len(self._asts)

    def log_key(self) -> str:
        """:func:`~repro.serve.cache.log_key` of the current log.

        Cached until the next :meth:`append` or :meth:`remove`, so
        re-serving an unchanged session re-keys nothing.  Raises
        ``ValueError`` on an empty log.
        """
        key = self._log_key
        if key is None:
            key = self._log_key = log_key(self._asts)
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

    def remove(self, indices: Iterable[int]) -> Tuple[int, ...]:
        """Delete the queries at ``indices``; returns them sorted ascending.

        Survivors keep their relative order.
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
            del self._sql[i]
            del self._asts[i]
            del self._query_keys[i]
        self._log_key = None
        return tuple(normalized)

    def retain(self, last_n: int) -> Tuple[int, ...]:
        """Keep at most the ``last_n`` most recent queries; returns the
        dropped indices.

        Retention only ever retires a *prefix*, so the recompute
        downstream carriers pay is bounded by one rejoined boundary pair
        (see ``CompiledSequence.without``).
        """
        if last_n < 0:
            raise ValueError(f"last_n must be >= 0, got {last_n}")
        drop_before = len(self._asts) - last_n
        if drop_before <= 0:
            return ()
        return self.remove(range(drop_before))


class SessionRouter:
    """Per-session :class:`LogStream` instances by session id, under one lock."""

    def __init__(self) -> None:
        self._streams: Dict[str, LogStream] = {}
        self._lock = threading.Lock()

    def stream(self, session_id: str) -> LogStream:
        """The session's stream; an unknown id reads as an empty stream
        the router does not keep (only :meth:`append` registers one)."""
        stream = self._streams.get(session_id)  # one dict read: no lock
        return stream if stream is not None else LogStream()

    def append(self, session_id: str, *queries: QueryLike) -> int:
        """Append to a session's log (registering it once the append
        succeeds); returns the stream's new length."""
        with self._lock:
            stream = self._streams.get(session_id)
            if stream is None:
                stream = LogStream()
            length = stream.append(*queries)
            self._streams[session_id] = stream
            return length

    def sessions(self) -> List[str]:
        """All registered session ids."""
        with self._lock:
            return list(self._streams)

    def remove(self, session_id: str, indices: Iterable[int]) -> Tuple[int, ...]:
        """Delete queries from a session's log (empty tuple if absent)."""
        with self._lock:
            stream = self._streams.get(session_id)
            return () if stream is None else stream.remove(indices)

    def retain(self, session_id: str, last_n: int) -> Tuple[int, ...]:
        """Keep a session's ``last_n`` most recent queries (see
        :meth:`LogStream.retain`); returns the dropped indices."""
        with self._lock:
            stream = self._streams.get(session_id)
            return () if stream is None else stream.retain(last_n)

    def drop(self, session_id: str) -> bool:
        """Forget a session's stream; returns whether it existed."""
        with self._lock:
            return self._streams.pop(session_id, None) is not None
