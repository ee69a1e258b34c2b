"""Incremental, warm-started interface generation over growing logs.

Cold generation re-parses the log, rebuilds the initial state, and
searches from scratch on every call.  For an append-only session stream
that is wasted work: the optimized difftree for the first ``n`` queries
is one anti-unification away from a valid — and usually near-optimal —
state for the first ``n + m``.  :class:`IncrementalGenerator` exploits
that in two layers:

1. **Exact cache** — an unchanged log (the same queries in the same
   order) is served straight from
   :class:`~repro.serve.cache.InterfaceCache` with *zero* search
   iterations.
2. **Session warm start** — on appends, the previous run's best difftree
   (and its elite transposition-table states) are extended to the new
   queries via :func:`~repro.difftree.extend_difftree` and injected into
   the next MCTS run, seeding both the incumbent and the UCT statistics.

A session warms only from its own state: its last run, or the exact
cached interface of its current log.  That state lives in the session's
:class:`~repro.serve.stream.SessionRecord`, in the
:class:`~repro.serve.stream.SessionRouter` the generator serves from;
the generator keeps no table of its own.

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
whose ``finish()`` performs the elite/sequence harvest, commits the
session's record and inserts the cache entry.
:meth:`repro.engine.LogSession.interface` is open → step → finish.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from .. import memo as _memo
from ..obs import trace as _trace
from ..core import GeneratedInterface, GenerationConfig, prepare_search
from ..difftree import DTNode, extend_difftree
from ..layout import Screen
from ..search.carry import CarriedTree
from ..search.mcts import MCTS
from .cache import InterfaceCache, context_key
from .stream import SessionRecord, SessionRouter

#: How many elite transposition-table states (beyond the best) a session
#: extends and re-seeds on its next run.
WARM_TOP_K = 4

#: Harvest cap of the carried search tree: at most this many
#: transposition-table nodes (most-visited first, parent-closed) survive
#: between a session's runs.
CARRY_MAX_NODES = 256


class PendingSearch:
    """One opened (but not yet finished) search for a session's log.

    Produced by :meth:`IncrementalGenerator.open_search`.  Either the
    cache already had the answer (``cached`` is set, ``task`` is None)
    or ``task`` is an opened, warm-started
    :class:`~repro.search.mcts.MCTS` the caller steps (in slices, or
    to completion with ``task.step()``) before calling :meth:`finish`
    exactly once to harvest elites/compiled sequences, insert the cache
    entry, and commit the session's warm state.  ``record`` is the
    session's record, found once when the search opened.
    """

    def __init__(
        self,
        service: "IncrementalGenerator",
        session_id: str,
        record: SessionRecord,
        cached: Optional[GeneratedInterface] = None,
        task: Optional[MCTS] = None,
        key: str = "",
        asts: Tuple = (),
        screen: Optional[Screen] = None,
        initial: Optional[DTNode] = None,
    ) -> None:
        self._service = service
        self.session_id = session_id
        self.record = record
        self.cached = cached
        self.task = task
        self._key = key
        self._asts = asts
        self._screen = screen
        self._initial = initial
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
        """Package the search outcome and commit the session's warm state.

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
            # Compiled sequences of the states carried into the next run.
            sequences = {
                tree.canonical_key: model.compiled_sequence(tree)
                for tree in (search_result.best_state,) + elite
            }
            # Carry the search tree itself: transposition table, UCT
            # statistics, and per-state choice-path universes (peeked
            # from the kernel cache the sequences above just refreshed).
            # The next open_search rebases it.
            tree = None
            if _memo.carry_enabled():
                tree = CarriedTree.harvest(
                    self.task,
                    model,
                    log_len=len(self._asts),
                    max_nodes=CARRY_MAX_NODES,
                )
            record = self.record
            with service.router.lock:
                service.searches_run += 1
                record.log_len = len(self._asts)
                record.best = result.difftree
                record.elite = elite
                record.sequences = sequences
                record.tree = tree
            service.cache.put(self._key, result)
            self.timings["search_s"] = search_result.elapsed
            self.timings["render_s"] = time.perf_counter() - render_started
        return result


class IncrementalGenerator:
    """The search side of serving: opens warm-started searches over the
    sessions of a :class:`~repro.serve.stream.SessionRouter`.

    Args:
        screen: target screen (default wide).
        config: generation settings; the strategy must be ``"mcts"`` —
            warm-starting seeds its transposition table — and
            ``config.exclude_rules`` selects the rule subset.
        cache: interface cache to consult/populate (default: fresh LRU).
        router: the session table to serve from (default: a fresh one).
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
        self._ctx = context_key(self.screen, self.config)
        #: How many actual searches this generator has run (cache hits
        #: don't count — the zero-new-iterations contract); guarded by
        #: the router's lock.
        self.searches_run = 0

    def open_search(self, session_id: str) -> PendingSearch:
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
            router = self.router
            # One locked read: the log, its key and the warm state agree.
            with router.lock:
                record = router.touch(session_id)
                asts = record.stream.asts() if record is not None else ()
                if not asts:
                    raise ValueError(f"session {session_id!r} has an empty log")
                # The stream caches its log key until the log changes, so
                # re-serving an unchanged session re-keys nothing.
                key = f"{record.stream.log_key()}:{self._ctx}"
                best, elite, log_len = record.best, record.elite, record.log_len
                sequences, carried = record.sequences, record.tree
            timings["parse_s"] = time.perf_counter() - parse_started
            cached = self.cache.get(key)
            if cached is not None:
                with router.lock:
                    # A warm state that covers this log (retention keeps
                    # log_len in step) stays as it is, so a read changes
                    # nothing the next write seeds.  Otherwise it
                    # describes another log and would be extended from the
                    # wrong offset: warm from the cached winner instead.
                    if record.best is None or record.log_len != len(asts):
                        record.log_len = len(asts)
                        record.best = cached.difftree
                        record.elite = ()
                pending = PendingSearch(self, session_id, record, cached=cached)
            else:
                difftree_started = time.perf_counter()
                warm = self._warm_states(best, elite, asts[log_len:])
                asts, screen, model, initial, engine = prepare_search(
                    asts, screen=self.screen, config=self.config
                )
                # Prior-run compiled sequences: warm states that graft into
                # the same difftree reuse their assignments and changed-choice
                # sets, paying matcher/diff cost only for the appended pairs.
                if sequences:
                    model.adopt_sequences(sequences)
                # Rebase the carried search tree onto the grown difftree:
                # survivors keep their UCT statistics, subtrees whose
                # decisions touch the append's changed choice-paths are
                # invalidated, and the rebased table seeds the MCTS
                # transposition table below.
                node_table = None
                carry_prov = None
                if carried is not None and _memo.carry_enabled():
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
                    record,
                    task=task,
                    key=key,
                    asts=tuple(asts),
                    screen=screen,
                    initial=initial,
                )
                pending.carry = carry_prov
        pending.timings.update(timings)
        return pending

    # -- internals -----------------------------------------------------------

    def _warm_states(
        self, best: Optional[DTNode], elite: Tuple[DTNode, ...], appended
    ) -> List[DTNode]:
        """The session's prior states extended to the appended queries
        (dedup by canonical key); none before its first run."""
        warm: List[DTNode] = []
        if best is None:
            return warm
        seen = set()
        for tree in (best,) + elite[:WARM_TOP_K]:
            extended = extend_difftree(tree, appended)
            if extended.canonical_key not in seen:
                seen.add(extended.canonical_key)
                warm.append(extended)
        return warm

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
