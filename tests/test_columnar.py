"""Canonical-key reference, merge-kernel parity, stream log key.

Every subtree's interned canonical key must equal the reference
derivation, and the memoized anti-unify/graft must build the same trees
as their unmemoized oracles (``tests/oracles.py``) on every workload.
Property-based tests draw random query logs; workload tests cover the
SDSS / TPC-H / synthetic generators.  A stream's cached log key must
match the cache's derivation under appends and removals.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import memo
from repro.difftree import (
    anti_unify,
    any_node,
    extend_difftree,
    graft,
    initial_difftree,
    wrap_ast,
)
from repro.memo import INGEST
from repro.serve import LogStream
from repro.serve.cache import log_key
from repro.sqlast import parse
from repro.workloads import mixed_session_log, sdss_session_sql, tpch_session_sql

from oracles import anti_unify_reference, canonical_key_reference, graft_reference

_COLUMNS = ["u", "g", "r", "i"]
_TABLES = ["stars", "galaxies"]


@st.composite
def query_sql(draw):
    parts = ["select"]
    if draw(st.booleans()):
        parts.append(f"top {draw(st.sampled_from([10, 100]))}")
    parts.append(draw(st.sampled_from(["objid", "ra", "count(*)"])))
    parts.append(f"from {draw(st.sampled_from(_TABLES))}")
    num_preds = draw(st.integers(min_value=0, max_value=3))
    if num_preds:
        conjuncts = []
        for _ in range(num_preds):
            column = draw(st.sampled_from(_COLUMNS))
            lo = draw(st.integers(min_value=0, max_value=9))
            conjuncts.append(f"{column} between {lo} and {lo + 5}")
        parts.append("where " + " and ".join(conjuncts))
    return " ".join(parts)


@st.composite
def query_log(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    return [draw(query_sql()) for _ in range(size)]


def workload_logs():
    return [
        sdss_session_sql(8, seed=11),
        tpch_session_sql(8, seed=13),
        mixed_session_log(8, seed=17),
    ]


def session_trees(log):
    """The evolving difftrees of a session ingesting ``log``."""
    asts = [parse(q) if isinstance(q, str) else q for q in log]
    tree = initial_difftree([asts[0]])
    trees = [tree]
    for ast in asts[1:]:
        tree = extend_difftree(tree, [ast])
        trees.append(tree)
    return asts, trees


def subtrees(tree):
    """Every node of ``tree``, preorder."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


class TestCanonicalKeyReference:
    def test_every_subtree_key_matches_reference(self):
        for log in workload_logs():
            _, trees = session_trees(log)
            for tree in trees:
                for node in subtrees(tree):
                    assert node.canonical_key == canonical_key_reference(node)

    def test_cold_large_tree_key_matches_reference(self):
        # Fresh literals, so no subtree is keyed yet.
        sqls = [
            f"select objid from stars where r between {i}.375 and {i}.625"
            for i in range(40)
        ]
        tree = any_node([wrap_ast(parse(s)) for s in sqls])
        assert tree.size >= 256
        assert tree.canonical_key == canonical_key_reference(tree)


class TestKernelParity:
    def test_workload_anti_unify_and_graft_parity(self):
        for log in workload_logs():
            asts, _ = session_trees(log)
            wrapped = [wrap_ast(a) for a in asts]
            tree = initial_difftree([asts[0]])
            for query in wrapped[1:]:
                au_ref = anti_unify_reference(tree, query)
                graft_ref = graft_reference(tree, query)
                memo.clear_memo_caches()
                assert anti_unify(tree, query) is au_ref
                assert graft(tree, query) is graft_ref
                tree = graft_ref

    @given(query_log(), query_log())
    @settings(max_examples=40, deadline=None)
    def test_random_pair_parity(self, sqls_a, sqls_b):
        a = initial_difftree([parse(s) for s in sqls_a])
        b = initial_difftree([parse(s) for s in sqls_b])
        au_ref = anti_unify_reference(a, b)
        graft_ref = graft_reference(a, b)
        memo.clear_memo_caches()
        assert anti_unify(a, b) is au_ref
        assert graft(a, b) is graft_ref

    def test_memo_tables_consulted_with_columnar(self):
        a = wrap_ast(parse("select ra from stars where u between 1 and 2"))
        b = wrap_ast(parse("select ra, objid from stars where u between 1 and 3"))
        memo.clear_memo_caches()
        anti_unify(a, b)
        before = INGEST.au_memo_hits
        anti_unify(a, b)
        assert INGEST.au_memo_hits > before
        tree = initial_difftree([parse("select ra from stars")])
        graft(tree, b)
        before = INGEST.graft_memo_hits
        graft(tree, b)
        assert INGEST.graft_memo_hits > before


class TestStreamLogKey:
    def test_matches_cache_derivation(self):
        stream = LogStream()
        stream.append(*sdss_session_sql(5, seed=47))
        assert stream.log_key() == log_key(stream.asts())

    def test_incremental_maintenance_under_appends_and_truncate(self):
        sqls = tpch_session_sql(6, seed=53)
        stream = LogStream()
        stream.append(sqls[0])
        first = stream.log_key()
        stream.append(sqls[0])  # duplicate: a longer sequence, a new key
        assert stream.log_key() != first
        assert stream.log_key() == log_key(stream.asts())
        stream.append(*sqls[1:])
        assert stream.log_key() == log_key(stream.asts())
        stream.remove([1])
        assert stream.log_key() == log_key(stream.asts())
        stream.remove(range(1, len(stream)))
        assert stream.log_key() == first
        with pytest.raises(ValueError):
            LogStream().log_key()

    def test_key_is_cached_until_the_log_changes(self, monkeypatch):
        import repro.serve.stream as stream_module

        calls = []
        real = stream_module.log_key

        def counting(asts):
            calls.append(len(asts))
            return real(asts)

        monkeypatch.setattr(stream_module, "log_key", counting)
        stream = LogStream()
        stream.append(*sdss_session_sql(4, seed=3))
        stream.log_key()
        stream.log_key()
        assert calls == [4]
        for mutate in (
            lambda: stream.append(sdss_session_sql(4, seed=3)[0]),
            lambda: stream.remove([0]),
            lambda: stream.retain(2),
        ):
            mutate()
            assert stream.log_key() == real(stream.asts())
        assert calls == [4, 5, 4, 2]
