"""Sessions: :class:`LogStream`, :class:`SessionRecord` and :class:`SessionRouter`.

Real analysis logs arrive as per-session append-only streams of SQL
text, with heavy repetition.  :class:`LogStream` parses each appended
text through :func:`repro.sqlast.parse`, whose process-wide memo is the
one parse cache, and hash-consing lands a repeated query (or one that
differs only in whitespace) on the same interned AST.  The stream caches
its log key.  :class:`SessionRouter` is the one session table: a
:class:`SessionRecord` per session id, under one lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple, Union

from ..cost import CompiledSequence
from ..difftree import DTNode
from ..search.carry import STATS as CARRY_STATS, CarriedTree
from ..sqlast import Node, parse
from .cache import log_key

QueryLike = Union[str, Node]

#: Session id of :meth:`repro.engine.Engine.session` called without one.
DEFAULT_SESSION = "default"


class LogStream:
    """One session's append-only SQL log."""

    def __init__(self) -> None:
        self._asts: List[Node] = []
        #: :meth:`log_key` of the current log, until the next mutation.
        self._log_key: Optional[str] = None

    def __len__(self) -> int:
        return len(self._asts)

    def append(self, *queries: QueryLike) -> int:
        """Ingest queries (SQL text or pre-parsed ASTs); returns the new length.

        Atomic: every query is parsed before any is committed, so a parse
        error mid-batch leaves the log unchanged instead of permanently
        ingesting the batch's leading queries.
        """
        staged = []
        for query in queries:
            if isinstance(query, Node):
                staged.append(query)
            elif isinstance(query, str):
                staged.append(parse(query))
            else:
                raise TypeError(f"query must be SQL text or AST, got {type(query)}")
        if staged:
            self._asts.extend(staged)
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
            del self._asts[i]
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


@dataclass(eq=False)
class SessionRecord:
    """One session: its log, its warm state and its report history.

    The warm state is what the session's next search starts from: its
    last run's winner and elites (extended to the queries appended
    since), their compiled query sequences, and the carried search tree.
    It is written only by the session's own runs — a finished search, or
    a cache hit on the session's current log — shrunk by its removals,
    and read only by its next run.
    """

    stream: LogStream = field(default_factory=LogStream)
    #: Most recent reports, oldest first (bounded by the router's
    #: ``max_history``).
    history: Deque = field(default_factory=deque)
    #: How many leading queries of the log ``best`` and ``elite`` express.
    log_len: int = 0
    best: Optional[DTNode] = None
    elite: Tuple[DTNode, ...] = ()
    #: difftree canonical key -> compiled query sequence of the previous
    #: run's winner/elites; the next run's cost model extends these so
    #: appended queries only diff the new pairs.
    sequences: Dict[str, CompiledSequence] = field(default_factory=dict)
    #: The previous run's harvested search tree (UCT statistics +
    #: per-state choice-path universes); the next run rebases it with
    #: delta-scoped invalidation instead of re-exploring from scratch.
    #: ``None`` until a search finishes (or when the carry gate is off).
    tree: Optional[CarriedTree] = None

    def retract(self, removed: Tuple[int, ...]) -> None:
        """Shrink the warm state after ``removed`` log indices went away.

        Bounded recompute, not a cold restart: the prior best/elite
        states still express every surviving query, so the next search
        stays warm; only the warm-start offset shifts and the carried
        sequences and tree shrink.
        """
        CARRY_STATS.retention_removals += len(removed)
        self.log_len -= sum(1 for i in removed if i < self.log_len)
        # Each carried sequence covers a prefix of the pre-removal log,
        # so indices below its coverage map one-to-one and the
        # retraction re-diffs only the rejoined boundary pairs.
        retracted: Dict[str, CompiledSequence] = {}
        for key, sequence in self.sequences.items():
            in_range = [i for i in removed if i < len(sequence.queries)]
            if in_range:
                sequence, rediffed = sequence.without(in_range)
                CARRY_STATS.retention_retracts += 1
                CARRY_STATS.retention_pairs_rediffed += rediffed
            retracted[key] = sequence
        self.sequences = retracted
        tree = self.tree
        if tree is not None:
            tree.log_len -= sum(1 for i in removed if i < tree.log_len)
            # Carried states expressed the whole pre-removal log, so they
            # still express the surviving subset; only their invalidation
            # scopes shrink, tracked where the freshly retracted
            # sequences cover them.
            for key, sequence in retracted.items():
                if key in tree.universes and sequence.ok:
                    tree.universes[key] = sequence.changes.path_set


def _bound(name: str, value: Optional[int], least: int) -> Optional[int]:
    """``value`` if it is ``None`` or an int of at least ``least``."""
    if value is not None and (
        not isinstance(value, int) or isinstance(value, bool) or value < least
    ):
        raise ValueError(f"{name} must be an int >= {least} or None, got {value!r}")
    return value


class SessionRouter:
    """The one session table: a :class:`SessionRecord` per session id.

    Records are kept in least-recently-used order under one lock.  An
    append creates a session's record once it succeeds; a lookup
    registers nothing and evicts nothing.  Appends, serves, removals and
    retention count as use: each refreshes the session's recency, and an
    append that creates a record past ``max_sessions`` evicts the least
    recently used session with its log, warm state and history.

    Args:
        max_sessions: how many sessions the table keeps (``None`` =
            unbounded).
        max_history: reports each session's history keeps, oldest
            dropped first (``None`` = unbounded).
    """

    def __init__(
        self, max_sessions: Optional[int] = None, max_history: Optional[int] = None
    ) -> None:
        self.max_sessions = _bound("max_sessions", max_sessions, 1)
        self.max_history = _bound("max_history", max_history, 0)
        self._records: "OrderedDict[str, SessionRecord]" = OrderedDict()
        #: Guards the table and every record in it: hold it to read a
        #: record's log together with its warm state, or to change either.
        #: Reentrant, so a holder may call the router's own methods.
        self.lock = threading.RLock()

    def stream(self, session_id: str) -> LogStream:
        """The session's stream; an unknown id reads as an empty stream
        the router does not keep (only :meth:`append` registers one)."""
        record = self._records.get(session_id)  # one dict read: no lock
        return record.stream if record is not None else LogStream()

    def touch(self, session_id: str) -> Optional[SessionRecord]:
        """The session's record, refreshed as the most recently used
        (``None`` if unknown): the one lookup a serve makes."""
        with self.lock:
            record = self._records.get(session_id)
            if record is not None:
                self._records.move_to_end(session_id)
            return record

    def append(self, session_id: str, *queries: QueryLike) -> int:
        """Append to a session's log, creating its record once the append
        succeeds; returns the log's new length."""
        with self.lock:
            record = self._records.get(session_id)
            if record is None:
                record = SessionRecord(history=deque(maxlen=self.max_history))
            length = record.stream.append(*queries)
            self._records[session_id] = record
            self._records.move_to_end(session_id)
            if self.max_sessions is not None:
                while len(self._records) > self.max_sessions:
                    self._records.popitem(last=False)
            return length

    def history(self, session_id: str) -> Tuple:
        """The session's retained reports, oldest first."""
        with self.lock:
            record = self._records.get(session_id)
            return () if record is None else tuple(record.history)

    def sessions(self) -> List[str]:
        """All registered session ids, least recently used first."""
        with self.lock:
            return list(self._records)

    def remove(self, session_id: str, indices: Iterable[int]) -> Tuple[int, ...]:
        """Delete queries from a session's log and retract its warm state;
        returns the removed indices (empty if the session is unknown)."""
        return self._shrink(session_id, LogStream.remove, indices)

    def retain(self, session_id: str, last_n: int) -> Tuple[int, ...]:
        """Keep a session's ``last_n`` most recent queries (see
        :meth:`LogStream.retain`) and retract its warm state; returns the
        dropped indices."""
        return self._shrink(session_id, LogStream.retain, last_n)

    def _shrink(self, session_id: str, cut, arg) -> Tuple[int, ...]:
        """``cut(stream, arg)`` and the warm state's retraction, as one
        locked step."""
        with self.lock:
            record = self.touch(session_id)
            if record is None:
                return ()
            removed = cut(record.stream, arg)
            if removed:
                record.retract(removed)
            return removed

    def drop(self, session_id: str) -> bool:
        """Forget a session's record; returns whether it existed."""
        with self.lock:
            return self._records.pop(session_id, None) is not None
