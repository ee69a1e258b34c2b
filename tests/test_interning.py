"""Interning invariants: hash-consing, fingerprints, and memo parity.

The contracts behind the hash-consed ingest path (ISSUE 5):

* parsing the same query twice yields *identical* interned subtrees,
* fingerprint equality ⇔ structural equality (property-style over the
  sdss / tpch / synthetic workloads),
* memoized ``anti_unify``/``graft``/``normalize`` agree bit-for-bit
  with their unmemoized oracles (``tests/oracles.py``),
* the serving dedup tiers and ingest counters observe repetition.
"""

import itertools

import pytest

from repro import memo
from repro.difftree import (
    anti_unify,
    extend_difftree,
    graft,
    initial_difftree,
    normalize,
    wrap_ast,
)
from repro.engine import Engine
from repro.core import GenerationConfig
from repro.workloads import get_workload
from repro.serve import LogStream, log_key, query_key
from repro.sqlast import parse

import oracles

FAST = GenerationConfig(time_budget_s=0.0, max_iterations=4, seed=0, final_cap=120)


def workload_asts():
    """A mixed bag of ASTs across the workload families."""
    asts = [parse(sql) for sql in get_workload("sdss")(10, seed=1)]
    asts += [parse(sql) for sql in get_workload("tpch")(10, seed=1)]
    asts += get_workload("synthetic.mixed_session")(10, seed=1)
    return asts


def structurally_equal(a, b):
    """Field-by-field comparison independent of interning/fingerprints."""
    return (
        a.label == b.label
        and a.value == b.value
        and len(a.children) == len(b.children)
        and all(structurally_equal(x, y) for x, y in zip(a.children, b.children))
    )


class TestNodeInterning:
    def test_same_query_parses_to_identical_subtrees(self):
        sql = "select top 10 objid from stars where u between 0 and 30"
        a = parse(sql)
        b = parse(sql)
        assert a is b
        # Every subtree is shared too, not just the root.
        for x, y in zip(a.walk(), b.walk()):
            assert x is y

    def test_equal_structure_from_different_texts_is_shared(self):
        # Same AST reached through different whitespace/case spellings.
        a = parse("select objid from stars where u < 5")
        b = parse("SELECT objid FROM stars WHERE u < 5")
        assert a is b

    def test_fingerprint_equality_iff_structural_equality(self):
        asts = workload_asts()
        for a, b in itertools.combinations(asts, 2):
            structural = structurally_equal(a, b)
            assert (a == b) == structural
            if structural:
                assert a is b
                assert a.fingerprint == b.fingerprint

    def test_wrapped_fingerprints_track_ast_identity(self):
        asts = workload_asts()
        keys = {}
        for ast in asts:
            keys.setdefault(wrap_ast(ast).canonical_key, ast)
        for key, ast in keys.items():
            # Distinct canonical keys => distinct interned ASTs.
            for other_key, other in keys.items():
                if key != other_key:
                    assert ast is not other


class TestDTNodeInterning:
    def test_wrap_ast_is_memoized(self):
        ast = parse("select objid from stars where u < 5")
        assert wrap_ast(ast) is wrap_ast(ast)

    def test_difftree_fingerprint_iff_canonical_key(self):
        asts = workload_asts()
        trees = [wrap_ast(ast) for ast in asts]
        trees.append(initial_difftree(asts[:5]))
        trees.append(initial_difftree(asts[5:9]))
        for a, b in itertools.combinations(trees, 2):
            assert (a == b) == (a.canonical_key == b.canonical_key)
            if a == b:
                assert a is b

    def test_rebuilt_difftree_is_identical_object(self):
        asts = workload_asts()[:6]
        assert initial_difftree(asts) is initial_difftree(list(asts))


class TestMemoParity:
    def test_anti_unify_matches_unmemoized_reference(self):
        asts = workload_asts()
        wrapped = [wrap_ast(ast) for ast in asts]
        for a, b in zip(wrapped, wrapped[1:]):
            reference = oracles.anti_unify_reference(a, b)
            memo.clear_memo_caches()
            assert anti_unify(a, b) is reference  # cold call
            assert anti_unify(a, b) is reference  # memo hit

    def test_graft_and_normalize_match_fast_path_off(self):
        # The memoized graft/normalize against the unmemoized oracles.
        asts = workload_asts()
        tree = initial_difftree(asts[:8])
        for ast in asts[8:]:
            slow = oracles.graft_reference(tree, wrap_ast(ast))
            memo.clear_memo_caches()
            fast = graft(tree, wrap_ast(ast))
            assert fast is slow
            assert normalize(fast) is fast
            assert oracles.normalize(fast) is fast

    def test_extend_difftree_counts_dedup_skipped_appends(self):
        asts = workload_asts()[:6]
        tree = initial_difftree(asts)
        before = memo.INGEST.dedup_skipped_appends
        extended = extend_difftree(tree, asts)  # all already expressed
        assert extended is tree
        assert memo.INGEST.dedup_skipped_appends == before + len(asts)


class TestLogKey:
    def test_order_and_duplication_sensitive(self):
        """The key is the query sequence: C(W, Q) sums over consecutive
        pairs, so a reordered or repeated log is a different log."""
        asts = workload_asts()[:6]
        assert len(set(asts)) == 6
        assert log_key(asts) == log_key(list(asts))
        assert log_key(asts) != log_key(list(reversed(asts)))
        assert log_key(asts) != log_key(asts + asts)
        assert log_key(asts[:1]) != log_key(asts[:1] * 2)

    def test_different_logs_differ(self):
        asts = workload_asts()
        assert log_key(asts[:4]) != log_key(asts[:5])

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            log_key([])


class TestStreamDedupTier:
    """Repeated and whitespace-variant texts dedup through ``parse``'s
    memo and hash-consing: one interned AST, one query key."""

    def test_whitespace_variant_lands_on_same_ast(self):
        stream = LogStream()
        stream.append("select objid from stars where u < 5")
        stream.append("select   objid from stars\n where u < 5")
        assert stream.ast(0) is stream.ast(1)
        assert query_key(stream.ast(0)) == query_key(stream.ast(1))

    def test_quoted_strings_opt_out_of_normalization(self):
        stream = LogStream()
        stream.append("select objid from stars where name = 'a  b'")
        stream.append("select objid from stars where name = 'a b'")
        assert stream.ast(0) is not stream.ast(1)
        assert query_key(stream.ast(0)) != query_key(stream.ast(1))

    def test_exact_duplicate_still_counts_as_parse_hit(self):
        sql = "select objid from stars where u < 7304.0625"
        stream = LogStream()
        parses, hits = memo.INGEST.parses, memo.INGEST.parse_memo_hits
        stream.append(sql)
        stream.append(sql)
        assert memo.INGEST.parses - parses == 1
        assert memo.INGEST.parse_memo_hits - hits == 1
        assert stream.ast(0) is stream.ast(1)


class TestIngestReporting:
    def test_engine_reports_carry_ingest_counters(self):
        engine = Engine(config=FAST)
        session = engine.session("ingest-report")
        session.append(*get_workload("sdss")(4, seed=3))
        report = session.interface()
        assert report.ingest_stats  # sampled
        payload = report.to_dict()
        ingest = payload["provenance"]["ingest"]
        assert payload["schema_version"] == 8
        assert "snapshot" not in payload["provenance"]
        assert set(ingest) == set(memo.INGEST.snapshot())
        for key in (
            "parses",
            "parse_memo_hits",
            "node_intern_hits",
            "dtnode_intern_hits",
            "au_memo_hits",
            "dedup_skipped_appends",
        ):
            assert key in ingest
            assert isinstance(ingest[key], int)
        # Schema 5 dropped the per-stream and whitespace-tier counters.
        assert not any(key.startswith(("stream_", "text_")) for key in ingest)

    def test_engine_ingest_stats_grow_with_repetition(self):
        engine = Engine(config=FAST)
        queries = get_workload("tpch")(4, seed=5)
        session = engine.session("rep")
        session.append(*queries)
        session.interface()
        before = engine.ingest_stats
        session.append(*queries)  # exact repeats: dedup tiers engage
        session.interface()
        after = engine.ingest_stats
        assert after["parse_memo_hits"] > before["parse_memo_hits"]
        assert after["dedup_skipped_appends"] >= before["dedup_skipped_appends"]
