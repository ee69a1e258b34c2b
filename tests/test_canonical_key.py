"""Canonical-key stability: the cache/transposition-table contract.

``DTNode.canonical_key`` must identify a state regardless of the order
in which it was built or reached — the interface cache keys logs by it
and the MCTS transposition table dedups states by it.
"""

import pickle
import random

from repro.difftree import extend_difftree, initial_difftree, wrap_ast
from repro.rules import default_engine
from repro.sqlast import parse

LOG = (
    "select top 10 objid from stars where u between 0 and 30",
    "select top 100 objid from galaxies where u between 5 and 25",
    "select count(*) from quasars where g between 2 and 28",
)


def structurally_equal(a, b):
    """Field-by-field structural comparison, independent of canonical
    keys (``DTNode.__eq__`` compares keys, which would make key-equality
    assertions circular)."""
    return (
        a.kind == b.kind
        and a.label == b.label
        and a.value == b.value
        and len(a.children) == len(b.children)
        and all(structurally_equal(x, y) for x, y in zip(a.children, b.children))
    )


class TestLogKeyStability:
    def test_same_log_same_key(self):
        a = initial_difftree([parse(q) for q in LOG])
        b = initial_difftree([parse(q) for q in LOG])
        assert structurally_equal(a, b)
        assert a.canonical_key == b.canonical_key

    def test_reordered_log_same_key(self):
        """Normalization sorts ANY alternatives, so the initial state is
        order-insensitive (the cache key is not: it keys the sequence)."""
        forward = initial_difftree([parse(q) for q in LOG])
        backward = initial_difftree([parse(q) for q in reversed(LOG)])
        assert structurally_equal(forward, backward)
        assert forward.canonical_key == backward.canonical_key

    def test_duplicated_log_same_key(self):
        once = initial_difftree([parse(q) for q in LOG])
        twice = initial_difftree([parse(q) for q in LOG + LOG])
        assert once.canonical_key == twice.canonical_key

    def test_different_log_different_key(self):
        a = initial_difftree([parse(q) for q in LOG[:2]])
        b = initial_difftree([parse(q) for q in LOG])
        assert a.canonical_key != b.canonical_key


class TestRewriteOrderStability:
    def test_commuting_rewrites_share_key(self):
        """Apply two independent moves in both orders; when the final
        states coincide structurally, their keys must too."""
        engine = default_engine()
        tree = initial_difftree([parse(q) for q in LOG])
        # The raw initial state has a single applicable move; walk a few
        # deterministic steps into the space where fanout is rich.
        rng = random.Random(0)
        for _ in range(3):
            move = engine.random_move(tree, rng)
            if move is None:
                break
            tree = engine.apply(tree, move)
        moves = engine.moves(tree)
        assert len(moves) >= 2
        found = 0
        for i in range(min(len(moves), 12)):
            for j in range(i + 1, min(len(moves), 12)):
                try:
                    ab = engine.apply(engine.apply(tree, moves[i]), moves[j])
                    ba = engine.apply(engine.apply(tree, moves[j]), moves[i])
                except Exception:
                    continue  # second move invalidated by the first
                if structurally_equal(ab, ba):
                    found += 1
                    assert ab.canonical_key == ba.canonical_key
        assert found > 0, "expected at least one commuting move pair"

    def test_random_walk_revisits_share_key(self):
        """States revisited along a random walk hash to the same key."""
        tree = initial_difftree([parse(q) for q in LOG])
        engine = default_engine()
        rng = random.Random(7)
        seen = {}
        current = tree
        for _ in range(60):
            move = engine.random_move(current, rng)
            if move is None:
                break
            current = engine.apply(current, move)
            key = current.canonical_key
            if key in seen:
                assert structurally_equal(seen[key], current)
            seen[key] = current
        assert len(seen) > 1

    def test_incremental_duplicate_append_is_stable(self):
        """Appending already-expressed queries must not move the key."""
        tree = initial_difftree([parse(q) for q in LOG])
        extended = extend_difftree(tree, [LOG[0], LOG[2]])
        assert extended.canonical_key == tree.canonical_key


class TestPickleStability:
    def test_difftree_roundtrip_preserves_key(self):
        tree = initial_difftree([parse(q) for q in LOG])
        clone = pickle.loads(pickle.dumps(tree))
        assert structurally_equal(clone, tree)
        assert clone.canonical_key == tree.canonical_key

    def test_ast_roundtrip(self):
        ast = parse(LOG[0])
        clone = pickle.loads(pickle.dumps(ast))
        assert clone == ast
        assert wrap_ast(clone).canonical_key == wrap_ast(ast).canonical_key
