"""Columnar wire format, merge-kernel parity, symbols, wiring.

The columnar contract (``repro/difftree/columnar.py``) is *exact*
interchangeability: ``from_node``/``to_node`` and the JSON payload
round-trip interned trees to the same objects, and the encoding's
columns obey the preorder identities (subtree = ``(pre, size)`` range).
The memoized anti-unify/graft must build the same trees as their
unmemoized oracles (``tests/oracles.py``) on every workload.  Property-based tests draw
random query logs; workload tests cover the SDSS / TPC-H / synthetic
generators.
"""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import memo, obs
from repro.difftree import (
    ColumnarTree,
    anti_unify,
    any_node,
    extend_difftree,
    graft,
    initial_difftree,
    wrap_ast,
)
from repro.difftree.columnar import STATS
from repro.memo import INGEST
from repro.serve import LogStream
from repro.serve.cache import log_key, log_key_fast
from repro.sqlast import SYMBOLS, head_symbol, parse
from repro.sqlast.symbols import SymbolTable
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


def check_encoding_invariants(tree):
    """Every structural identity the parallel columns promise."""
    ct = ColumnarTree.from_node(tree)
    assert ct.n == tree.size
    assert ct.to_node() is tree
    assert ct.parent[0] == -1
    for i in range(ct.n):
        node = ct.nodes[i]
        assert ct.size[i] == node.size
        # Children sit at sibling hops inside the (pre, size) range.
        kids = []
        j = i + 1
        while j < i + ct.size[i]:
            kids.append(j)
            j += ct.size[j]
        assert j == i + ct.size[i]
        assert [ct.nodes[j] for j in kids] == list(node.children)
        for j in kids:
            assert ct.parent[j] == i
        # absent: the slot can consume zero AST children.
        if ct.is_ast or node.kind == "ALL":
            expected = 0
        elif node.kind == "ANY":
            expected = int(any(ct.absent[j] for j in kids))
        else:  # OPT, MULTI, EMPTY
            expected = 1
        assert ct.absent[i] == expected


class TestRoundTrip:
    def test_workload_trees_round_trip(self):
        for log in workload_logs():
            asts, trees = session_trees(log)
            for ast in asts:
                assert ColumnarTree.from_node(ast).to_node() is ast
                check_encoding_invariants(wrap_ast(ast))
            for tree in trees:
                check_encoding_invariants(tree)

    @given(query_log())
    @settings(max_examples=40, deadline=None)
    def test_random_trees_round_trip(self, sqls):
        asts = [parse(s) for s in sqls]
        tree = initial_difftree(asts)
        check_encoding_invariants(tree)
        assert ColumnarTree.from_node(tree).to_node() is tree

    def test_payload_round_trip(self):
        for log in workload_logs():
            _, trees = session_trees(log)
            for tree in trees[-2:]:
                payload = json.loads(json.dumps(ColumnarTree.from_node(tree).to_payload()))
                assert ColumnarTree.from_payload(payload).to_node() is tree

    def test_payload_round_trip_ast_mode(self):
        ast = parse(sdss_session_sql(3, seed=5)[0])
        ct = ColumnarTree.from_node(ast)
        assert ct.is_ast
        payload = json.loads(json.dumps(ct.to_payload()))
        assert ColumnarTree.from_payload(payload).to_node() is ast

    def test_payload_version_check(self):
        with pytest.raises(ValueError):
            ColumnarTree.from_payload({"version": 99})


class TestCanonicalKeyReference:
    def test_every_subtree_key_matches_reference(self):
        for log in workload_logs():
            _, trees = session_trees(log)
            for tree in trees:
                for node in ColumnarTree.from_node(tree).nodes:
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


class TestSymbols:
    def test_interning_is_bijective_and_stable(self):
        table = SymbolTable()
        sid = table.id_of(("ALL", "Select", None))
        assert table.id_of(("ALL", "Select", None)) == sid
        assert table.symbol_of(sid) == ("ALL", "Select", None)
        assert ("ALL", "Select", None) in table
        other = table.id_of(("ANY", None, None))
        assert other != sid
        assert len(table) == 2
        assert table.stats() == {"symbols": 2}

    def test_head_symbol_equality_iff_id_equality(self):
        a = head_symbol("ALL", "ColExpr", "ra")
        b = head_symbol("ALL", "ColExpr", "ra")
        c = head_symbol("ALL", "ColExpr", "dec")
        assert a == b and a != c
        assert SYMBOLS.symbol_of(a) == ("ALL", "ColExpr", "ra")


class TestObservability:
    def test_columnar_metrics_registered(self):
        tree = wrap_ast(parse("select objid from galaxies where g between 3 and 4"))
        before = STATS.encodes
        ColumnarTree._encode(tree)
        assert STATS.encodes == before + 1
        snap = obs.snapshot()
        assert "difftree.columnar.encodes" in snap
        assert "sqlast.symbols.symbols" in snap
        assert "cache.difftree.columnar.encode.hits" in snap

    def test_encode_memo_serves_repeat_encodings(self):
        tree = wrap_ast(parse("select ra from stars where i between 5 and 6"))
        first = ColumnarTree.from_node(tree)
        assert ColumnarTree.from_node(tree) is first


class TestStreamLogKey:
    def test_matches_cache_derivation(self):
        stream = LogStream()
        stream.append(*sdss_session_sql(5, seed=47))
        assert stream.log_key() == log_key(stream.asts())
        assert stream.log_key() == log_key_fast(stream.query_keys())

    def test_incremental_maintenance_under_appends_and_truncate(self):
        sqls = tpch_session_sql(6, seed=53)
        stream = LogStream()
        stream.append(sqls[0])
        first = stream.log_key()
        stream.append(sqls[0])  # duplicate: key unchanged, cache valid
        assert stream.log_key() == first
        stream.append(*sqls[1:])
        assert stream.log_key() == log_key(stream.asts())
        stream.truncate(1)
        assert stream.log_key() == first
        with pytest.raises(ValueError):
            LogStream().log_key()
