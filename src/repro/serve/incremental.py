"""Incremental, warm-started interface generation over growing logs.

Cold generation re-parses the log, rebuilds the initial state, and
searches from scratch on every call.  For an append-only session stream
that is wasted work: the optimized difftree for the first ``n`` queries
is one anti-unification away from a valid — and usually near-optimal —
state for the first ``n + m``.  :class:`IncrementalGenerator` exploits
that in three layers:

1. **Exact cache** — an unchanged log (the same queries in the same
   order) is served straight from
   :class:`~repro.serve.cache.InterfaceCache` with *zero* search
   iterations.
2. **Session warm start** — on appends, the previous run's best difftree
   (and its elite transposition-table states) are extended to the new
   queries via :func:`~repro.difftree.extend_difftree` and injected into
   the next MCTS run, seeding both the incumbent and the UCT statistics.
3. **Prefix warm start** — a session with no prior run of its own can
   still warm-start from the cached interface of its longest cached log
   prefix (e.g. a restarted session replaying its history).

On top of the state warm start, each session carries the *compiled
query sequences* (:class:`repro.cost.CompiledSequence`) of its previous
winner and elite states.  When the next run's extended state is the
same difftree (grafting is a no-op whenever the tree already expresses
the appended queries — the common case for sessions revisiting familiar
query shapes), the new cost model reuses the prior per-query
assignments and changed-choice sets wholesale and only diffs the newly
appended pairs.  A grafted (structurally changed) tree shifts its
choice paths, so its carry entry simply misses and the sequence is
recompiled — correctness never depends on the carry.

Warm seeding spends the same per-evaluation budget as search, so warm
and cold runs at equal ``time_budget_s`` are directly comparable.

Generation is *resumable*: :meth:`IncrementalGenerator.open_search`
builds the full warm-started machinery (cache probe, extended warm
states, adopted compiled sequences, an opened :class:`~repro.search.MCTS`
task built from the generator's config) without running the search,
returning a :class:`PendingSearch` whose ``task`` the caller steps and
whose ``finish()`` performs the elite/sequence harvest and cache
insertion.  :meth:`IncrementalGenerator.generate` and
:meth:`repro.engine.LogSession.interface` are both open → step → finish.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import memo as _memo
from ..obs import trace as _trace
from ..core import GeneratedInterface, GenerationConfig, prepare_search
from ..cost import CompiledSequence
from ..difftree import DTNode, extend_difftree
from ..layout import Screen
from ..search.carry import STATS as CARRY_STATS, CarriedTree
from ..search.mcts import MCTS
from .cache import InterfaceCache, context_key
from .stream import QueryLike, SessionRouter

#: Session id used by the single-session convenience paths.
DEFAULT_SESSION = "default"

#: How many elite transposition-table states (beyond the best) a session
#: extends and re-seeds on its next run.
WARM_TOP_K = 4

#: Harvest cap of the carried search tree: at most this many
#: transposition-table nodes (most-visited first, parent-closed) survive
#: between a session's runs.
CARRY_MAX_NODES = 256


@dataclass
class _SessionState:
    """What one session carries from run to run."""

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


class PendingSearch:
    """One opened (but not yet finished) search for a session's log.

    Produced by :meth:`IncrementalGenerator.open_search`.  Either the
    cache already had the answer (``cached`` is set, ``task`` is None)
    or ``task`` is an opened, warm-started
    :class:`~repro.search.mcts.MCTS` the caller steps (in slices, or
    to completion with ``task.step()``) before calling :meth:`finish`
    exactly once to harvest elites/compiled sequences, insert the cache
    entry, and update the session's warm-start carry.
    """

    def __init__(
        self,
        service: "IncrementalGenerator",
        session_id: str,
        cached: Optional[GeneratedInterface] = None,
        task: Optional[MCTS] = None,
        key: str = "",
        query_keys: Tuple[str, ...] = (),
        asts: Tuple = (),
        screen: Optional[Screen] = None,
        initial: Optional[DTNode] = None,
        state: Optional[_SessionState] = None,
    ) -> None:
        self._service = service
        self.session_id = session_id
        self.cached = cached
        self.task = task
        self._key = key
        self._query_keys = query_keys
        self._asts = asts
        self._screen = screen
        self._initial = initial
        self._state = state
        self._finished = False
        #: Per-phase wall-clock seconds (``parse_s``/``difftree_s``/...),
        #: filled by :meth:`IncrementalGenerator.open_search` and
        #: :meth:`finish`; consumed by report builders.
        self.timings: Dict[str, float] = {}
        #: Search-tree carry provenance of this run (``None`` when no
        #: carried tree was rebased — cold runs, cache hits, gate off):
        #: nodes carried / invalidated / re-keyed / reopened.  Surfaced
        #: through :class:`~repro.engine.report.GenerationReport`.
        self.carry: Optional[Dict[str, int]] = None

    def finish(self) -> GeneratedInterface:
        """Package the search outcome and commit the session carry.

        Idempotent-guarded: a pending search is finished once.  Callable
        before the task is ``done`` too — it commits the best interface
        found so far.
        """
        if self.cached is not None:
            return self.cached
        if self._finished:
            raise RuntimeError("PendingSearch.finish() called twice")
        self._finished = True
        service = self._service
        with _trace("serve.finish", session=self.session_id):
            search_result = self.task.result()
            render_started = time.perf_counter()
            elite = service._elite_states(
                self.task, self._initial, search_result.best_state
            )
            result = GeneratedInterface(
                queries=list(self._asts),
                screen=self._screen,
                search=search_result,
                best=search_result.best,
            )
            model = self.task.evaluator.model
            state = self._state
            with service._lock:
                state.sequences = service._harvest_sequences(
                    model, (search_result.best_state,) + elite
                )
                service.searches_run += 1
                state.log_len = len(self._asts)
                state.best = result.difftree
                state.elite = elite
                # Carry the search tree itself: transposition table,
                # UCT statistics, and per-state choice-path universes
                # (peeked from the kernel cache the sequences above just
                # refreshed).  The next open_search rebases it.
                if _memo.carry_enabled():
                    state.tree = CarriedTree.harvest(
                        self.task,
                        model,
                        log_len=len(self._asts),
                        max_nodes=CARRY_MAX_NODES,
                    )
                else:
                    state.tree = None
            # Bound the cache tags to the snapshot taken at open time: a
            # concurrent append during the search must not tag this entry
            # with queries the generated interface never saw.
            service.cache.put(
                self._key, result, query_keys=self._query_keys, ctx=service._ctx
            )
            self.timings["search_s"] = search_result.elapsed
            self.timings["render_s"] = time.perf_counter() - render_started
        return result


class IncrementalGenerator:
    """A long-lived generation service over per-session query streams.

    Args:
        screen: target screen (default wide).
        config: generation settings; the strategy must be ``"mcts"`` —
            warm-starting seeds its transposition table — and
            ``config.exclude_rules`` selects the rule subset.
        cache: interface cache to consult/populate (default: fresh LRU).
        router: session router to ingest through (default: a fresh one).
    """

    def __init__(
        self,
        screen: Optional[Screen] = None,
        config: Optional[GenerationConfig] = None,
        cache: Optional[InterfaceCache] = None,
        router: Optional[SessionRouter] = None,
    ) -> None:
        config = config or GenerationConfig()
        if config.strategy != "mcts":
            # The warm path below drives the MCTS class directly (node
            # table + incumbent seeding), the only warm-starting search.
            raise ValueError(
                "IncrementalGenerator needs the warm-starting 'mcts' "
                f"strategy, got {config.strategy!r}"
            )
        self.screen = screen or Screen.wide()
        self.config = config
        self.cache = cache if cache is not None else InterfaceCache()
        self.router = router if router is not None else SessionRouter()
        self._sessions: Dict[str, _SessionState] = {}
        self._ctx = context_key(self.screen, self.config)
        #: Guards the per-session carry table and counters — callers
        #: sharing one Engine across threads may open/finish searches
        #: for different sessions concurrently.  Searches themselves run
        #: outside the lock.
        self._lock = threading.Lock()
        #: How many actual searches this generator has run (cache hits
        #: don't count — the zero-new-iterations contract).
        self.searches_run = 0

    # -- ingestion ----------------------------------------------------------

    def append(self, *queries: QueryLike, session_id: str = DEFAULT_SESSION) -> int:
        """Append queries to a session's log; returns its new length."""
        return self.router.append(session_id, *queries)

    def drop_session(self, session_id: str = DEFAULT_SESSION) -> bool:
        """Forget a session's stream and warm-start carry; True if it existed.

        Releases the whole carry — warm states, compiled sequences, and
        the carried search tree with its node graph — so a bounded
        engine's eviction cannot leak ``_TreeNode`` graphs.
        """
        existed = self.router.drop(session_id)
        with self._lock:
            carried = self._sessions.pop(session_id, None) is not None
        return carried or existed

    def remove(
        self, indices, session_id: str = DEFAULT_SESSION
    ) -> int:
        """Delete queries from a session's log; returns the new length.

        Bounded recompute, not a cold restart: the session's carried
        compiled sequences are retracted in place (only rejoined
        boundary pairs re-diffed), the carried search tree's coverage
        and universes shrink accordingly, and the warm-start offset is
        shifted — the prior best/elite states still express every
        surviving query (removal only shrinks the log they covered), so
        the next search stays warm.
        """
        removed = self.router.remove(session_id, indices)
        self._retract(session_id, removed)
        return len(self.router.stream(session_id))

    def retain(self, last_n: int, session_id: str = DEFAULT_SESSION) -> int:
        """Keep the session's ``last_n`` most recent queries; returns the
        new length.

        See :meth:`remove` for the bounded-recompute carry maintenance.
        """
        removed = self.router.retain(session_id, last_n)
        self._retract(session_id, removed)
        return len(self.router.stream(session_id))

    def _retract(self, session_id: str, removed: Tuple[int, ...]) -> None:
        """Shrink a session's carry after ``removed`` log indices went away."""
        if not removed:
            return
        CARRY_STATS.retention_removals += len(removed)
        with self._lock:
            state = self._sessions.get(session_id)
            if state is None:
                return
            state.log_len -= sum(1 for i in removed if i < state.log_len)
            # Retract the carried compiled sequences in place: each one
            # covers a prefix of the pre-removal log, so indices below
            # its coverage map one-to-one and the retraction re-diffs
            # only the rejoined boundary pairs.
            retracted: Dict[str, CompiledSequence] = {}
            for key, sequence in state.sequences.items():
                in_range = [i for i in removed if i < len(sequence.queries)]
                if in_range:
                    sequence, rediffed = sequence.without(in_range)
                    CARRY_STATS.retention_retracts += 1
                    CARRY_STATS.retention_pairs_rediffed += rediffed
                retracted[key] = sequence
            state.sequences = retracted
            tree = state.tree
            if tree is not None:
                tree.log_len -= sum(1 for i in removed if i < tree.log_len)
                # Carried states expressed the whole pre-removal log, so
                # they still express the surviving subset; only their
                # invalidation scopes shrink, tracked where the freshly
                # retracted sequences cover them.
                for key, sequence in retracted.items():
                    if key in tree.universes and sequence.ok:
                        tree.universes[key] = sequence.changes.path_set

    # -- snapshot interop ----------------------------------------------------

    def export_session(
        self, session_id: str = DEFAULT_SESSION
    ) -> Optional[Tuple[int, Optional[DTNode], Tuple[DTNode, ...],
                        Dict[str, CompiledSequence], Optional[CarriedTree]]]:
        """The session's carry, read atomically (None when it has none).

        The :mod:`repro.serve.snapshot` capture path: returns
        ``(log_len, best, elite, sequences, tree)`` — everything the
        next :meth:`open_search` would consume beyond the log itself.
        """
        with self._lock:
            state = self._sessions.get(session_id)
            if state is None:
                return None
            return (
                state.log_len,
                state.best,
                state.elite,
                dict(state.sequences),
                state.tree,
            )

    def import_session(
        self,
        session_id: str,
        log_len: int,
        best: Optional[DTNode],
        elite: Tuple[DTNode, ...] = (),
        sequences: Optional[Dict[str, CompiledSequence]] = None,
        tree: Optional[CarriedTree] = None,
    ) -> None:
        """Install a session carry wholesale (the snapshot restore path).

        Overwrites any existing carry for the id — restore is a full
        replacement; callers drop stale state first.
        """
        with self._lock:
            state = self._sessions.setdefault(session_id, _SessionState())
            state.log_len = log_len
            state.best = best
            state.elite = tuple(elite)
            state.sequences = dict(sequences or {})
            state.tree = tree

    # -- generation ---------------------------------------------------------

    def open_search(self, session_id: str = DEFAULT_SESSION) -> PendingSearch:
        """Open a resumable, warm-started search for the session's log.

        Probes the exact cache first (a hit returns a completed
        :class:`PendingSearch` with ``cached`` set and no task); on a
        miss, extends the session's prior best/elite states to the grown
        log, adopts its carried compiled sequences into a fresh cost
        model, and opens the MCTS task — warm seeding included — without
        running a single search iteration.  The caller steps
        ``pending.task`` and then calls ``pending.finish()``.
        """
        timings: Dict[str, float] = {}
        with _trace("serve.open_search", session=session_id):
            parse_started = time.perf_counter()
            stream = self.router.stream(session_id)
            asts = stream.asts()
            if not asts:
                raise ValueError(f"session {session_id!r} has an empty log")

            # The stream caches its log key until the log changes, so
            # re-serving an unchanged session re-keys nothing.
            key = f"{stream.log_key()}:{self._ctx}"
            timings["parse_s"] = time.perf_counter() - parse_started
            with self._lock:
                state = self._sessions.setdefault(session_id, _SessionState())
            cached = self.cache.get(key)
            if cached is not None:
                with self._lock:
                    # A warm state that covers this log (retention keeps
                    # log_len in step) stays as it is, so a read changes
                    # nothing the next write seeds.  Otherwise it
                    # describes another log and would be extended from the
                    # wrong offset: warm from the cached winner instead.
                    if state.best is None or state.log_len != len(asts):
                        state.log_len = len(asts)
                        state.best = cached.difftree
                        state.elite = ()
                pending = PendingSearch(self, session_id, cached=cached)
            else:
                difftree_started = time.perf_counter()
                warm = self._warm_states(state, stream, asts)
                query_keys = stream.query_keys(end=len(asts))
                asts, screen, model, initial, engine = prepare_search(
                    asts, screen=self.screen, config=self.config
                )
                # Prior-run compiled sequences: warm states that graft into
                # the same difftree reuse their assignments and changed-choice
                # sets, paying matcher/diff cost only for the appended pairs.
                if state.sequences:
                    model.adopt_sequences(state.sequences)
                # Rebase the carried search tree onto the grown difftree:
                # survivors keep their UCT statistics, subtrees whose
                # decisions touch the append's changed choice-paths are
                # invalidated, and the rebased table seeds the MCTS
                # transposition table below.
                node_table = None
                carry_prov = None
                if state.tree is not None and _memo.carry_enabled():
                    carried = state.tree
                    boundary = (
                        asts[carried.log_len - 1] if carried.log_len else None
                    )
                    node_table, carry_prov = carried.rebase(
                        initial, boundary, asts[carried.log_len :]
                    )
                timings["difftree_s"] = time.perf_counter() - difftree_started
                # Warm seeding inside open() spends search budget, so the
                # task's clock (-> ``search_s``) accounts for it.
                task = MCTS(model, engine, self.config, node_table=node_table).open(
                    initial, warm_states=warm
                )
                pending = PendingSearch(
                    self,
                    session_id,
                    task=task,
                    key=key,
                    query_keys=query_keys,
                    asts=tuple(asts),
                    screen=screen,
                    initial=initial,
                    state=state,
                )
                pending.carry = carry_prov
        pending.timings.update(timings)
        return pending

    def generate(self, session_id: str = DEFAULT_SESSION) -> GeneratedInterface:
        """Interface for the session's current log (cached/warm-started).

        The monolithic convenience over :meth:`open_search`: run the
        opened task to completion in one slice and finish.
        """
        pending = self.open_search(session_id)
        if pending.cached is not None:
            return pending.cached
        pending.task.step()
        return pending.finish()

    # -- internals -----------------------------------------------------------

    def _warm_states(self, state, stream, asts) -> List[DTNode]:
        """Extend prior states to the grown log (dedup by canonical key)."""
        warm: List[DTNode] = []
        seen = set()

        def add(tree: DTNode) -> None:
            if tree.canonical_key not in seen:
                seen.add(tree.canonical_key)
                warm.append(tree)

        if state.best is not None:
            appended = asts[state.log_len :]
            add(extend_difftree(state.best, appended))
            for tree in state.elite[:WARM_TOP_K]:
                add(extend_difftree(tree, appended))
        else:
            match = self.cache.longest_prefix(
                stream.query_keys(end=len(asts)), self._ctx
            )
            if match is not None:
                add(extend_difftree(match.result.difftree, asts[match.matched :]))
        return warm

    def _harvest_sequences(
        self, model, trees: Tuple[DTNode, ...]
    ) -> Dict[str, CompiledSequence]:
        """Compiled sequences of the states carried into the next run."""
        return {
            tree.canonical_key: model.compiled_sequence(tree) for tree in trees
        }

    def _elite_states(
        self, mcts: MCTS, initial: DTNode, best_state: DTNode
    ) -> Tuple[DTNode, ...]:
        """Top transposition-table states by mean reward (next warm seeds)."""
        exclude = {initial.canonical_key, best_state.canonical_key}
        ranked = sorted(
            (
                node
                for key, node in mcts.nodes.items()
                if key not in exclude and node.visits > 0
            ),
            key=lambda node: node.mean_reward(),
            reverse=True,
        )
        return tuple(node.state for node in ranked[:WARM_TOP_K])
