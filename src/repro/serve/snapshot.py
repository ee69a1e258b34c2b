"""Session snapshots: capture + restore a session's warm state.

A serving session's value lives in state that dies with its process:
the append-only log, the previous run's best difftree and elite
transposition-table states (the warm start), the compiled query
sequences carried between runs, and the session's current
:class:`~repro.serve.cache.InterfaceCache` entry.
:class:`SessionSnapshot` captures all of it as one JSON-native payload
(every tree written by :func:`repro.difftree.columnar.tree_payload`)
and restores it into any engine sharing the capture-time screen/config
context.

The restore contract follows the snapshot-isolation checking
discipline: restored state must be **observationally indistinguishable**
from never-crashed state.  Concretely, after ``restore()``:

* an ``interface()`` call on the unchanged log is a cache hit returning
  the *same* cost, breakdown, widget tree, and search diagnostics the
  original session would have returned (capture ships the cached
  winner's decision vector as the search left it; restore checks every
  value against its decision's options, re-scores the vector through
  the compiled cost kernel — cross-checked against the stored cost —
  and derives the widget tree from it on first read);
* an append + search continues from the same warm state (extended best
  + elites, recompiled sequences) and — searches being seed-fixed and
  iteration-capped deterministic — produces the same results the
  uninterrupted session would have.

Snapshots are versioned (:data:`SNAPSHOT_SCHEMA_VERSION`); unknown
versions, wrong-context payloads, and corrupt entries are rejected with
:class:`SnapshotError` instead of silently restoring drifted state.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core import GeneratedInterface, prepare_search
from ..cost import CompiledSequence
from ..difftree import DTNode, as_asts, tree_from_payload, tree_payload
from ..obs import trace as _trace
from ..search.common import SearchResult, SearchStats
from ..sqlast import SqlError
from .cache import context_key

#: Bump when the snapshot payload shape changes.  Restore refuses other
#: versions outright — a restoring engine must never guess at state.
SNAPSHOT_SCHEMA_VERSION = 1

_STATS_FIELDS = {f.name for f in dataclasses.fields(SearchStats)}


class SnapshotError(ValueError):
    """A snapshot payload is corrupt, stale, or context-incompatible."""


def _optional_tree(payload: Optional[Dict[str, Any]]) -> Optional[DTNode]:
    """The tree in a slot that may hold none (``None`` or the marker a
    never-searched session writes for ``best``: no state, not corruption)."""
    if payload is None or payload.get("absent_state"):
        return None
    return tree_from_payload(payload)


def _encode_vector(vector) -> List[Any]:
    """JSON-encode a decision vector (tuples -> lists)."""
    return [list(v) if isinstance(v, tuple) else v for v in vector]


def _decode_vector(raw) -> List[Any]:
    """Inverse of :func:`_encode_vector` (lists -> tuples)."""
    return [tuple(v) if isinstance(v, list) else v for v in raw]


@dataclass
class SessionSnapshot:
    """One session's full warm state, as JSON-native data.

    Attributes:
        session_id: the session the state belongs to.
        generation: the log length at capture time (monotone per
            session, so a caller persisting snapshots can order them).
        ctx: the capture-time context fingerprint
            (:func:`~repro.serve.cache.context_key` of screen+config).
            Restore refuses a mismatched engine: the same state under a
            different screen or config is a *different* interface.
        queries: the replayable log — one entry per ingested query,
            ``{"sql": text}`` for text appends or ``{"ast": payload}``
            (tree wire format) for AST-only appends.
        log_len: how many leading queries the carried warm state covers
            (the ``_SessionState.log_len`` of the incremental service).
        best: tree payload of the previous run's winning difftree
            (absent-state marker when the session never searched).
        elite: tree payloads of the carried elite states.
        cached: the session's current cache entry, replayable without a
            search: the winner's difftree payload + decision vector +
            search diagnostics (strategy/elapsed/history/stats) + the
            expected cost (restore-time integrity check).  ``None`` when
            the entry was evicted or never produced.
        carry: the session's carried search tree
            (:meth:`repro.search.carry.CarriedTree.to_payload`):
            transposition-table nodes with UCT statistics and choice-path
            universes, in insertion order so a restored session's next
            search rebases — and tie-breaks — exactly like the
            uninterrupted one.  ``None`` when the session never searched
            or the carry gate was off.  Additive to schema version 1;
            payloads without the field restore with no carried tree.
    """

    session_id: str
    generation: int
    ctx: str
    queries: List[Dict[str, Any]] = field(default_factory=list)
    log_len: int = 0
    best: Optional[Dict[str, Any]] = None
    elite: List[Dict[str, Any]] = field(default_factory=list)
    cached: Optional[Dict[str, Any]] = None
    carry: Optional[Dict[str, Any]] = None

    # -- capture -------------------------------------------------------------

    @classmethod
    def capture(cls, engine, session_id: str) -> "SessionSnapshot":
        """Snapshot one session of an :class:`~repro.engine.Engine`.

        Safe at any *delivered-interface boundary* (no search mid-
        flight for the session): everything the next run consumes is
        read under the incremental service's carry lock.
        """
        with _trace("serve.snapshot.capture", session=session_id):
            service = engine._incremental_service()
            stream = engine.router.stream(session_id)
            sql = stream.sql()
            asts = stream.asts()
            queries: List[Dict[str, Any]] = [
                {"sql": text} if text else {"ast": tree_payload(ast)}
                for text, ast in zip(sql, asts)
            ]
            exported = service.export_session(session_id)
            log_len = 0
            best: Optional[DTNode] = None
            elite: Tuple[DTNode, ...] = ()
            carried = None
            if exported is not None:
                log_len, best, elite, _sequences, carried = exported
            snapshot = cls(
                session_id=session_id,
                generation=len(asts),
                ctx=context_key(engine.screen, engine.config),
                queries=queries,
                log_len=log_len,
                best=(
                    {"version": 2, "absent_state": True}
                    if best is None else tree_payload(best)
                ),
                elite=[tree_payload(tree) for tree in elite],
                carry=carried.to_payload() if carried is not None else None,
            )
            if asts:
                key = f"{stream.log_key()}:{snapshot.ctx}"
                generated = engine.cache.peek(key)
                if generated is not None:
                    snapshot.cached = cls._encode_cached(generated)
            return snapshot

    @staticmethod
    def _encode_cached(generated: GeneratedInterface) -> Dict[str, Any]:
        """The cache entry as replayable data (winner vector, not trees)."""
        search = generated.search
        vector = search.best.vector
        if vector is None:
            raise SnapshotError(
                "cached winner holds a widget tree but no decision vector; "
                "cannot encode a replayable snapshot"
            )
        return {
            "difftree": tree_payload(search.best.tree),
            "vector": _encode_vector(vector),
            "cost": search.best.breakdown.total,
            "strategy": search.strategy,
            "elapsed": search.elapsed,
            "history": [list(point) for point in search.history],
            "stats": dataclasses.asdict(search.stats),
        }

    # -- wire format ---------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """The versioned JSON-native envelope."""
        return {
            "version": SNAPSHOT_SCHEMA_VERSION,
            "session_id": self.session_id,
            "generation": self.generation,
            "ctx": self.ctx,
            "queries": self.queries,
            "log_len": self.log_len,
            "best": self.best,
            "elite": self.elite,
            "cached": self.cached,
            "carry": self.carry,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "SessionSnapshot":
        """Validate and decode a :meth:`to_payload` envelope.

        Top-level keys this version does not read are ignored, so a
        payload that carries extra fields still restores.  The log, its
        ids and counts and the warm-state tree slots are type-checked
        here, so a wrong type there is a :class:`SnapshotError`, not an
        exception from deep in restore.
        """
        if not isinstance(payload, dict):
            raise SnapshotError(f"snapshot payload must be a dict, got {type(payload)}")
        version = payload.get("version")
        if version != SNAPSHOT_SCHEMA_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {version!r} "
                f"(this process reads version {SNAPSHOT_SCHEMA_VERSION})"
            )
        missing = [
            k for k in ("session_id", "generation", "ctx", "queries", "log_len")
            if k not in payload
        ]
        if missing:
            raise SnapshotError(f"snapshot payload missing keys {missing}")
        if not isinstance(payload["session_id"], str):
            raise SnapshotError("snapshot session_id must be a string")
        queries = payload["queries"]
        if not isinstance(queries, list) or not all(
            isinstance(q, dict)
            and (isinstance(q.get("sql"), str) or isinstance(q.get("ast"), dict))
            for q in queries
        ):
            raise SnapshotError("snapshot queries must be sql (text) / ast (dict) entries")
        for name in ("generation", "log_len"):
            if type(payload[name]) is not int:  # bool is an int subclass
                raise SnapshotError(f"snapshot {name} must be an int, got {payload[name]!r}")
        best = payload.get("best")
        elite = payload.get("elite") or []
        if not (best is None or isinstance(best, dict)) or not (
            isinstance(elite, list) and all(isinstance(tree, dict) for tree in elite)
        ):
            raise SnapshotError("snapshot best and elite entries must be tree payloads")
        generation = payload["generation"]
        if generation != len(queries):
            raise SnapshotError(
                f"snapshot generation {generation} disagrees with its "
                f"{len(queries)}-query log"
            )
        log_len = payload["log_len"]
        if not 0 <= log_len <= generation:
            raise SnapshotError(f"carried log_len {log_len} outside [0, {generation}]")
        cached = payload.get("cached")
        if cached is not None:
            required = ("difftree", "vector", "cost", "strategy", "elapsed",
                        "history", "stats")
            absent = [k for k in required if k not in cached]
            if absent:
                raise SnapshotError(f"cached entry missing keys {absent}")
            unknown = set(cached["stats"]) - _STATS_FIELDS
            if unknown:
                raise SnapshotError(f"cached entry has unknown stats {sorted(unknown)}")
        carry = payload.get("carry")
        if carry is not None and (
            not isinstance(carry, dict) or "nodes" not in carry
        ):
            raise SnapshotError("carry payload must be a dict with nodes")
        return cls(
            session_id=payload["session_id"],
            generation=generation,
            ctx=payload["ctx"],
            queries=queries,
            log_len=log_len,
            best=best,
            elite=list(elite),
            cached=cached,
            carry=carry,
        )

    # -- restore -------------------------------------------------------------

    def restore(self, engine) -> str:
        """Rebuild the session inside ``engine``; returns the session id.

        Any existing state under the same id is dropped first — a
        restore is a full replacement, not a merge.  Raises
        :class:`SnapshotError` on context mismatch, on a tree or SQL
        text that does not decode, when the cached decision vector holds
        a value that is not an option of its decision, or when the
        replayed cache entry's cost disagrees with the stored one
        (corrupt or cross-version state must not be served).  Every
        check runs before the engine is touched, so a refused restore
        leaves a session already under the id as it was.
        """
        with _trace("serve.snapshot.restore", session=self.session_id):
            expected_ctx = context_key(engine.screen, engine.config)
            if self.ctx != expected_ctx:
                raise SnapshotError(
                    "snapshot context does not match the restoring engine "
                    "(different screen/config); refusing to restore"
                )
            try:
                replayed = [
                    q["sql"] if q.get("sql") else tree_from_payload(q["ast"])
                    for q in self.queries
                ]
                best = _optional_tree(self.best)
                elite = tuple(
                    tree for tree in map(_optional_tree, self.elite)
                    if tree is not None
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise SnapshotError(f"corrupt snapshot tree payload: {exc}") from exc
            try:
                asts = as_asts(replayed)
            except (SqlError, TypeError) as exc:
                raise SnapshotError(f"snapshot query does not parse: {exc}") from exc

            sequences: Dict[str, CompiledSequence] = {}
            if best is not None and self.log_len:
                prior = asts[: self.log_len]
                for tree in (best,) + elite:
                    key = tree.canonical_key
                    if key not in sequences:
                        sequences[key] = CompiledSequence.compile(tree, prior)
            carried = None
            if self.carry is not None:
                from ..search.carry import CarriedTree

                try:
                    carried = CarriedTree.from_payload(self.carry)
                except (KeyError, ValueError, TypeError) as exc:
                    raise SnapshotError(
                        f"corrupt carried-tree payload: {exc}"
                    ) from exc
            cached = None
            if self.cached is not None:
                cached = self._replay_cached(engine, asts)

            service = engine._incremental_service()
            engine.drop_session(self.session_id)
            if replayed:
                engine.router.append(self.session_id, *replayed)
            stream = engine.router.stream(self.session_id)
            service.import_session(
                self.session_id,
                log_len=self.log_len,
                best=best,
                elite=elite,
                sequences=sequences,
                tree=carried,
            )
            if cached is not None:
                engine.cache.put(
                    f"{stream.log_key()}:{self.ctx}", cached,
                    query_keys=stream.query_keys(end=len(asts)),
                    ctx=self.ctx,
                )
            note = getattr(engine, "_note_restored", None)
            if note is not None:
                note(
                    self.session_id,
                    {
                        "restored": True,
                        "generation": self.generation,
                        "snapshot_version": SNAPSHOT_SCHEMA_VERSION,
                    },
                )
            return self.session_id

    def _replay_cached(self, engine, asts) -> GeneratedInterface:
        """Re-score the cached winner's vector against the log ``asts``."""
        if not asts:
            raise SnapshotError("cached entry on an empty log")
        asts, screen, model, _initial, _rules = prepare_search(
            asts, screen=engine.screen, config=engine.config
        )
        entry = self.cached
        try:
            tree = tree_from_payload(entry["difftree"])
        except (KeyError, ValueError, TypeError) as exc:
            raise SnapshotError(f"corrupt cached difftree payload: {exc}") from exc
        kernel = model.kernel_for(tree)
        try:
            vector = tuple(_decode_vector(entry["vector"]))
        except TypeError as exc:
            raise SnapshotError(f"corrupt cached decision vector: {exc}") from exc
        schema = kernel.schema
        if len(vector) != len(schema.decisions):
            raise SnapshotError(
                f"cached decision vector has {len(vector)} values; its "
                f"difftree has {len(schema.decisions)} decisions"
            )
        for index, value in enumerate(vector):
            if value not in schema.options_for(index):
                raise SnapshotError(
                    f"cached decision vector value {index} ({value!r}) is not "
                    "an option of its decision"
                )
        breakdown = kernel.evaluate(vector)
        if breakdown.total != entry["cost"]:
            raise SnapshotError(
                f"replayed cache entry cost {breakdown.total!r} disagrees with "
                f"the snapshotted cost {entry['cost']!r}; refusing to serve "
                "drifted state"
            )
        from ..cost import EvaluatedInterface

        best = EvaluatedInterface(tree, None, breakdown, vector=vector)
        search = SearchResult(
            best=best,
            best_state=tree,
            history=[tuple(point) for point in entry["history"]],
            stats=SearchStats(**entry["stats"]),
            elapsed=entry["elapsed"],
            strategy=entry["strategy"],
        )
        return GeneratedInterface(
            queries=list(asts), screen=screen, search=search, best=best
        )
