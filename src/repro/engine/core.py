"""The session-oriented Engine facade over generate/serve.

One long-lived object owns every piece of serving state the caller used
to hand-wire — the per-session logs (inside the
:class:`~repro.serve.SessionRouter`), the :class:`~repro.serve.InterfaceCache`,
and the warm-start/compiled-sequence carry-over of
:class:`~repro.serve.IncrementalGenerator` — and exposes these verbs:

* :meth:`Engine.generate` — one-shot, cache-aware generation: a cache
  hit, or one cold search.  A caller with many logs loops over it.
* :meth:`Engine.session` — a :class:`LogSession` handle whose
  ``append()`` / ``interface()`` / ``history()`` make "append queries,
  get the refreshed interface" the primary operation (incremental +
  cached + warm-started under the hood).

Every verb returns a :class:`~repro.engine.report.GenerationReport`:
the uniform JSON-serializable envelope (interface + search stats +
kernel counters + cache/warm-start provenance + timings).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..core import GeneratedInterface, GenerationConfig, prepare_search, run_search
from ..difftree import as_asts
from ..layout import Screen
from ..memo import INGEST
from ..obs import collecting as _collecting, emit_report as _emit_report, trace as _trace
from ..serve import (
    DEFAULT_SESSION,
    IncrementalGenerator,
    InterfaceCache,
    SessionRouter,
    context_key,
    query_key,
)
from ..serve.stream import QueryLike
from ..sqlast import Node
from .report import GenerationReport


class LogSession:
    """One serving session's handle: append queries, get interfaces.

    Obtained from :meth:`Engine.session`; the engine keeps one handle
    per id, so repeated ``session("a")`` calls share history.  All
    state (log, warm-start carry, cache) lives in the owning engine —
    the handle is just the session-scoped view of it.  Every write and
    serve registers the session the way :meth:`Engine.session` does,
    refreshing its recency and applying ``max_sessions``: a handle kept
    past its session's eviction re-registers *itself* within the bound,
    so ``engine.session(id)`` returns it and its history stays whole.
    If another handle was registered under the id in between, reports
    served through the stale handle land in that handle's history.
    """

    def __init__(self, engine: "Engine", session_id: str) -> None:
        self._engine = engine
        self.session_id = session_id
        #: Most recent reports, oldest first (bounded: the engine's
        #: max_history caps what a long-lived session retains).
        self._history: Deque[GenerationReport] = deque(maxlen=engine.max_history)

    def __len__(self) -> int:
        return self.log_length

    @property
    def log_length(self) -> int:
        """How many queries this session has ingested."""
        return len(self._engine.router.stream(self.session_id))

    def append(self, *queries: QueryLike) -> int:
        """Append queries (SQL text or ASTs); returns the new log length."""
        self._engine._register(self.session_id, self)
        return self._engine.router.append(self.session_id, *queries)

    def interface(self) -> GenerationReport:
        """The interface for the session's current log.

        Incremental by construction: an unchanged log is a cache hit
        (zero search), an appended one warm-starts from the previous
        run's extended difftree, elites, and compiled sequences.
        """
        owner = self._engine._register(self.session_id, self)
        report = self._engine._session_interface(self.session_id)
        owner._history.append(report)
        return report

    def remove(self, indices: Sequence[int]) -> int:
        """Delete the queries at ``indices``; returns the new log length.

        The session's warm-start carry — compiled sequences, carried
        search tree, prior best/elites — is shrunk in place with bounded
        recompute, not dropped (see
        :meth:`repro.serve.IncrementalGenerator.remove`).
        """
        self._engine._register(self.session_id, self)
        return self._engine._incremental_service().remove(
            indices, session_id=self.session_id
        )

    def retain(self, last_n: int) -> int:
        """Keep the ``last_n`` most recent queries; returns the new length."""
        self._engine._register(self.session_id, self)
        return self._engine._incremental_service().retain(
            last_n, session_id=self.session_id
        )

    def history(self) -> Tuple[GenerationReport, ...]:
        """Retained reports, oldest first (the engine's ``max_history``
        most recent ones)."""
        return tuple(self._history)

    def drop(self) -> bool:
        """Forget the session's log and warm-start state (history stays)."""
        return self._engine.drop_session(self.session_id)


class Engine:
    """The facade owning all generation/serving state.

    Args:
        screen: target screen (default wide).
        config: generation settings shared by every verb; validated at
            construction (see :class:`~repro.core.GenerationConfig`).
            Its ``strategy`` names the search, and its ``exclude_rules``
            removes rules from the paper's full set.
        cache: interface cache to consult/populate (default: fresh LRU).
        max_history: reports each :class:`LogSession` retains for
            :meth:`LogSession.history` (oldest dropped first;
            ``None`` = unbounded).
        max_sessions: how many live sessions the engine retains
            (``None`` = unbounded).  Past the bound, the least recently
            *used* session is evicted with its full serving state —
            log stream, warm-start carry, and compiled sequences are
            released through :meth:`drop_session`, so a long-running
            engine's per-session state cannot leak.
    """

    def __init__(
        self,
        screen: Optional[Screen] = None,
        config: Optional[GenerationConfig] = None,
        cache: Optional[InterfaceCache] = None,
        max_history: Optional[int] = 64,
        max_sessions: Optional[int] = None,
    ) -> None:
        if max_history is not None and max_history < 0:
            raise ValueError(f"max_history must be >= 0 or None, got {max_history}")
        if max_sessions is not None and max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1 or None, got {max_sessions}")
        self.screen = screen or Screen.wide()
        self.config = config or GenerationConfig()
        self.cache = cache if cache is not None else InterfaceCache()
        self.router = SessionRouter()
        self.max_history = max_history
        self.max_sessions = max_sessions
        self._ctx = context_key(self.screen, self.config)
        #: Incremental service backing LogSessions (built on first use —
        #: it requires ``"mcts"``, which the one-shot verb does not).
        self._incremental: Optional[IncrementalGenerator] = None
        #: Live session handles in least-recently-used order (guarded:
        #: callers may share one engine across threads).
        self._sessions: "OrderedDict[str, LogSession]" = OrderedDict()
        self._sessions_lock = threading.Lock()
        #: Searches run by the one-shot verb (the incremental service
        #: keeps its own count; see :attr:`searches_run`).
        self._direct_searches = 0

    # -- introspection ------------------------------------------------------

    @property
    def searches_run(self) -> int:
        """Actual searches executed (cache hits excluded), all verbs."""
        incremental = (
            self._incremental.searches_run if self._incremental is not None else 0
        )
        return self._direct_searches + incremental

    @property
    def cache_stats(self) -> Dict[str, int]:
        return self.cache.snapshot()

    @property
    def ingest_stats(self) -> Dict[str, int]:
        """Ingest-path counters: the process-wide parse, intern and memo
        activity of :data:`repro.memo.INGEST`, whichever verb ingested."""
        return INGEST.snapshot()

    @staticmethod
    def workload(name: str, *args, **kwargs):
        """Generate a workload log by name (e.g. ``"sdss"``; see
        :data:`repro.workloads.WORKLOADS`)."""
        from ..workloads import get_workload  # not loaded by `import repro`

        return get_workload(name)(*args, **kwargs)

    # -- one-shot -----------------------------------------------------------

    def generate(self, queries: Sequence[Union[str, Node]]) -> GenerationReport:
        """One-shot, cache-aware generation for a full log.

        A log this engine already served — the same queries in the same
        order, repeats included — returns from the cache without
        searching; otherwise the configured strategy runs one cold
        search, and the result is cached for future one-shot *and*
        session calls.
        """
        t0 = time.perf_counter()
        spans: List[Dict] = []
        with _collecting(spans), _trace("engine.generate"):
            # Key and consult the cache before building any search machinery
            # — a hit must not pay for a cost model or rule engine.
            asts = as_asts(queries)
            key = InterfaceCache.key_for(asts, self.screen, self.config)
            parse_s = time.perf_counter() - t0
            cached = self.cache.get(key)
            if cached is not None:
                report = GenerationReport(
                    result=cached,
                    source="cache",
                    strategy=cached.search.strategy,
                    log_size=len(asts),
                    cache_stats=self.cache_stats,
                    ingest_stats=self.ingest_stats,
                    timings={
                        "parse_s": parse_s,
                        "total_s": time.perf_counter() - t0,
                    },
                )
            else:
                difftree_started = time.perf_counter()
                asts, screen, model, initial, rules = prepare_search(
                    asts, screen=self.screen, config=self.config
                )
                difftree_s = time.perf_counter() - difftree_started
                result = run_search(model, initial, rules, self.config)
                self._direct_searches += 1
                render_started = time.perf_counter()
                generated = GeneratedInterface(
                    queries=asts, screen=screen, search=result, best=result.best
                )
                self.cache.put(
                    key,
                    generated,
                    query_keys=tuple(map(query_key, asts)),
                    ctx=self._ctx,
                )
                report = GenerationReport(
                    result=generated,
                    source="search",
                    strategy=result.strategy,
                    log_size=len(asts),
                    cache_stats=self.cache_stats,
                    ingest_stats=self.ingest_stats,
                    timings={
                        "parse_s": parse_s,
                        "difftree_s": difftree_s,
                        "search_s": result.elapsed,
                        "render_s": time.perf_counter() - render_started,
                        "total_s": time.perf_counter() - t0,
                    },
                )
        report.trace = spans
        _emit_report(report, verb="generate")
        return report

    # -- sessions -----------------------------------------------------------

    def session(self, session_id: str = DEFAULT_SESSION) -> LogSession:
        """The (shared) handle for one serving session.

        Requires ``config.strategy == "mcts"`` — the warm-started search
        the incremental path is built on; others raise at first use.

        With ``max_sessions`` set, looking up (or creating) a session
        refreshes its recency, and the least recently used sessions past
        the bound are evicted via :meth:`drop_session` — releasing their
        log streams *and* the incremental service's warm-start carry,
        not just the handle.
        """
        return self._register(session_id)

    def _register(
        self, session_id: str, stale: Optional[LogSession] = None
    ) -> LogSession:
        """The handle registered under ``session_id``, registering one if
        the id is absent: ``stale`` (a handle kept past its session's
        eviction) or else a fresh handle."""
        self._incremental_service()  # fail fast on a non-MCTS strategy
        evicted: List[str] = []
        with self._sessions_lock:
            handle = self._sessions.get(session_id)
            if handle is None:
                handle = stale if stale is not None else LogSession(self, session_id)
                self._sessions[session_id] = handle
            self._sessions.move_to_end(session_id)
            if self.max_sessions and len(self._sessions) > self.max_sessions:
                evicted = [
                    sid for sid in self._sessions if sid != session_id
                ][: len(self._sessions) - self.max_sessions]
                for old_id in evicted:
                    del self._sessions[old_id]
        for old_id in evicted:
            # Outside the handle lock: eviction must also drop the
            # warm-start/compiled-sequence carry and the log stream, or a
            # bounded session table still leaks serving state.
            self._drop_session_state(old_id)
        return handle

    def sessions(self) -> List[str]:
        """Ids of every session the router holds (appended to, not read)."""
        return self.router.sessions()

    def drop_session(self, session_id: str) -> bool:
        """Forget a session's log and warm-start state."""
        with self._sessions_lock:
            self._sessions.pop(session_id, None)
        return self._drop_session_state(session_id)

    def _drop_session_state(self, session_id: str) -> bool:
        """Release everything beyond the handle (stream and warm carry —
        a reused id is a fresh session)."""
        if self._incremental is not None:
            return self._incremental.drop_session(session_id)
        return self.router.drop(session_id)

    def _incremental_service(self) -> IncrementalGenerator:
        if self._incremental is None:
            self._incremental = IncrementalGenerator(
                screen=self.screen,
                config=self.config,
                cache=self.cache,
                router=self.router,
            )
        return self._incremental

    def _session_interface(self, session_id: str) -> GenerationReport:
        service = self._incremental_service()
        t0 = time.perf_counter()
        spans: List[Dict] = []
        with _collecting(spans), _trace("engine.session.interface", session=session_id):
            pending = service.open_search(session_id)
            searched = pending.cached is None
            if searched:
                pending.task.step()
            generated = pending.finish()
        timings = dict(pending.timings)
        timings["total_s"] = time.perf_counter() - t0
        report = GenerationReport(
            result=generated,
            source="search" if searched else "cache",
            strategy=generated.search.strategy,
            session_id=session_id,
            log_size=len(generated.queries),
            warm_states_seeded=(
                generated.search.stats.warm_states_seeded if searched else 0
            ),
            cache_stats=self.cache_stats,
            ingest_stats=self.ingest_stats,
            timings=timings,
            carry=pending.carry if searched else None,
        )
        report.trace = spans
        _emit_report(report, verb="session.interface")
        return report
