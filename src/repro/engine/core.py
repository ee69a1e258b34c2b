"""The session-oriented Engine facade over generate/serve.

One long-lived object owns every piece of serving state — the session
table (:class:`~repro.serve.SessionRouter`: each session's log, warm
state and report history), the :class:`~repro.serve.InterfaceCache`,
and the :class:`~repro.serve.IncrementalGenerator` that searches over
them — and exposes these verbs:

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

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
)
from ..serve.stream import QueryLike
from ..sqlast import Node
from .report import GenerationReport


class LogSession:
    """One serving session's handle: append queries, get interfaces.

    Obtained from :meth:`Engine.session`.  A handle is a view over the
    session's record in the engine's session table
    (:class:`~repro.serve.SessionRouter`): handles on one id share one
    log and one history, and the handle itself keeps no state.  The
    session exists once something is appended to it; once it is evicted
    or dropped, its log, warm state and history are gone, and a handle
    that writes again starts a fresh session.
    """

    def __init__(self, engine: "Engine", session_id: str) -> None:
        self._engine = engine
        self.session_id = session_id

    def __len__(self) -> int:
        return self.log_length

    @property
    def log_length(self) -> int:
        """How many queries this session has ingested."""
        return len(self._engine.router.stream(self.session_id))

    def append(self, *queries: QueryLike) -> int:
        """Append queries (SQL text or ASTs); returns the new log length."""
        return self._engine.router.append(self.session_id, *queries)

    def interface(self) -> GenerationReport:
        """The interface for the session's current log.

        Incremental by construction: an unchanged log is a cache hit
        (zero search), an appended one warm-starts from the previous
        run's extended difftree, elites, and compiled sequences.
        """
        return self._engine._session_interface(self.session_id)

    def remove(self, indices: Sequence[int]) -> int:
        """Delete the queries at ``indices``; returns the new log length.

        The session's warm state — compiled sequences, carried search
        tree, prior best/elites — is shrunk in place with bounded
        recompute, not dropped (see
        :meth:`repro.serve.SessionRecord.retract`).
        """
        self._engine.router.remove(self.session_id, indices)
        return self.log_length

    def retain(self, last_n: int) -> int:
        """Keep the ``last_n`` most recent queries; returns the new length."""
        self._engine.router.retain(self.session_id, last_n)
        return self.log_length

    def history(self) -> Tuple[GenerationReport, ...]:
        """Retained reports, oldest first (the engine's ``max_history``
        most recent ones)."""
        return self._engine.router.history(self.session_id)

    def drop(self) -> bool:
        """Forget the session: its log, warm state and history."""
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
        max_history: reports each session retains for
            :meth:`LogSession.history` (oldest dropped first;
            ``None`` = unbounded).
        max_sessions: how many sessions the engine retains (``None`` =
            unbounded).  Past the bound, the least recently *used*
            session is evicted with its log, warm state and history, so
            a long-running engine's per-session state cannot leak.
    """

    def __init__(
        self,
        screen: Optional[Screen] = None,
        config: Optional[GenerationConfig] = None,
        cache: Optional[InterfaceCache] = None,
        max_history: Optional[int] = 64,
        max_sessions: Optional[int] = None,
    ) -> None:
        self.screen = screen or Screen.wide()
        self.config = config or GenerationConfig()
        #: The one session table; it refuses a bound that is not an int
        #: in range.
        self.router = SessionRouter(
            max_sessions=max_sessions, max_history=max_history
        )
        self.cache = cache if cache is not None else InterfaceCache()
        #: Incremental service backing LogSessions (built on first use —
        #: it requires ``"mcts"``, which the one-shot verb does not).
        self._incremental: Optional[IncrementalGenerator] = None
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
                self.cache.put(key, generated)
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
        """A handle on one serving session.

        Requires ``config.strategy == "mcts"`` — the warm-started search
        the incremental path is built on; others raise here.

        A lookup registers nothing and evicts nothing: the session exists
        once something is appended to it, and every handle on the id
        shares its log and history.
        """
        self._incremental_service()  # fail fast on a non-MCTS strategy
        return LogSession(self, session_id)

    def sessions(self) -> List[str]:
        """Ids of every session the engine holds (appended to, not read)."""
        return self.router.sessions()

    def drop_session(self, session_id: str) -> bool:
        """Forget a session's log, warm state and history."""
        return self.router.drop(session_id)

    def _incremental_service(self) -> IncrementalGenerator:
        with self.router.lock:  # threads may open the first session at once
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
        with self.router.lock:
            pending.record.history.append(report)
        _emit_report(report, verb="session.interface")
        return report
