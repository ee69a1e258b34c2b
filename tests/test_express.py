"""Tests for expressibility matching, assignments, and enumeration."""

import itertools
import random

import pytest

from repro import memo
from repro.difftree import (
    ANY,
    MULTI,
    OPT,
    all_node,
    assignment_for,
    changed_choices,
    count_queries,
    enumerate_queries,
    expresses,
    expresses_all,
    initial_difftree,
    multi_node,
    opt_node,
    wrap_ast,
)
from repro.difftree import express
from repro.rules import default_engine, forward_engine
from repro.sqlast import parse
from repro.widgets import domain_of, option_label
from repro.workloads import sdss_session_sql, tpch_session_sql

from oracles import enumerate_queries_reference, first_assignment_reference


def factored(queries, skip_multi=True):
    """Drive forward rules to a fixpoint (deterministic helper)."""
    engine = forward_engine()
    tree = initial_difftree(queries)
    while True:
        moves = engine.moves(tree)
        if skip_multi:
            moves = [m for m in moves if m.rule_name != "Multi"]
        if not moves:
            return tree
        tree = engine.apply(tree, moves[0])


class TestExpresses:
    def test_initial_tree_expresses_inputs(self, fig1_queries, fig1_tree):
        assert expresses_all(fig1_tree, fig1_queries)

    def test_does_not_express_unrelated(self, fig1_tree):
        assert not expresses(fig1_tree, parse("select zzz from nowhere"))

    def test_factored_tree_expresses_inputs(self, fig1_queries):
        tree = factored(fig1_queries)
        assert expresses_all(tree, fig1_queries)

    def test_factored_tree_generalizes(self, fig1_queries):
        # Figure 4: the factored tree also expresses sales+EUR (not in log).
        tree = factored(fig1_queries)
        assert expresses(tree, parse("SELECT sales FROM sales WHERE cty = 'EUR'"))
        assert expresses(tree, parse("SELECT sales FROM sales"))

    def test_opt_expresses_absence(self):
        q_with = parse("select a from t where x < 1")
        q_without = parse("select a from t")
        tree = factored([q_with, q_without])
        assert expresses(tree, q_with)
        assert expresses(tree, q_without)

    def test_multi_expresses_variable_repetitions(self):
        queries = [
            parse("select a from t where x < 1"),
            parse("select a from t where x < 1 and x < 1"),
        ]
        base = wrap_ast(queries[1])
        # Hand-build: And children merged into MULTI.
        engine = forward_engine()
        tree = initial_difftree(queries)
        moves = [m for m in engine.moves(tree)]
        # Whatever the rule path, the invariant below must hold for three
        # repetitions too once a MULTI exists.
        for move in moves:
            after = engine.apply(tree, move)
            assert expresses_all(after, queries)

    def test_multi_matches_zero_and_many(self):
        template = wrap_ast(parse("select a from t").child_by_label("Project").children[0])
        tree = all_node("Project", None, (multi_node(template),))
        assert count_queries(tree, multi_cap=3) == 4  # 0..3 repetitions

    def test_sdss_log_expressible_through_factoring(self, sdss_queries):
        tree = factored(sdss_queries)
        assert expresses_all(tree, sdss_queries)


class TestAssignments:
    def test_assignment_roundtrip_via_instantiate(self, fig1_queries):
        from repro.interface import instantiate

        tree = factored(fig1_queries)
        for query in fig1_queries:
            assignment = assignment_for(tree, query)
            assert assignment is not None
            assert instantiate(tree, assignment) == query

    def test_assignment_none_for_inexpressible(self, fig1_tree):
        assert assignment_for(fig1_tree, parse("select q from q")) is None

    def test_changed_choices_between_queries(self, fig1_queries):
        tree = factored(fig1_queries)
        a = assignment_for(tree, fig1_queries[0])
        b = assignment_for(tree, fig1_queries[1])
        changed = changed_choices(a, b)
        assert changed  # projection + literal differ
        assert changed_choices(a, a) == []

    def test_changed_includes_missing_keys(self):
        assert changed_choices({(0,): 1}, {}) == [(0,)]

    def test_opt_assignment_values(self):
        q_with = parse("select a from t where x < 1")
        q_without = parse("select a from t")
        tree = factored([q_with, q_without])
        with_a = assignment_for(tree, q_with)
        without_a = assignment_for(tree, q_without)
        assert True in with_a.values()
        assert False in without_a.values()


class TestCounting:
    def test_initial_counts_inputs(self, fig1_queries, fig1_tree):
        assert count_queries(fig1_tree) == 3

    def test_factored_counts_product(self, fig1_queries):
        tree = factored(fig1_queries)
        # 2 projections x (absent + 2 literals) = 6 (paper: "can express
        # more queries than the initial difftree").
        assert count_queries(tree) == 6

    def test_enumerate_contains_inputs(self, fig1_queries):
        tree = factored(fig1_queries)
        enumerated = enumerate_queries(tree, limit=100)
        for query in fig1_queries:
            assert query in enumerated

    def test_enumerate_respects_limit(self, sdss_queries):
        tree = factored(sdss_queries)
        assert len(enumerate_queries(tree, limit=10)) == 10

    @pytest.mark.parametrize(
        "workload", [sdss_session_sql, tpch_session_sql], ids=["sdss", "tpch"]
    )
    def test_enumerate_matches_eager_reference(self, workload):
        # The eager oracle materializes every child before the product,
        # so it stays on 4-query logs.  Its output at a smaller limit is
        # a prefix of its output at 300 (it appends in order and stops).
        for seed in range(4):
            queries = [parse(sql) for sql in workload(4, seed=seed)]
            trees = (
                initial_difftree(queries),
                factored(queries),
                factored(queries, skip_multi=False),
            )
            for tree in trees:
                reference = enumerate_queries_reference(tree, limit=300)
                for limit in (1, 7, 50, 300):
                    assert enumerate_queries(tree, limit=limit) == reference[:limit]

    def test_enumerate_unique(self, fig1_queries):
        tree = factored(fig1_queries)
        out = enumerate_queries(tree, limit=1000)
        assert len(out) == len(set(out))

    def test_opt_counting(self):
        leaf = all_node("ColExpr", "a")
        tree = all_node("Project", None, (opt_node(leaf),))
        assert count_queries(tree) == 2


def walked_states(queries, seed, walks=2, steps=10):
    """States visited by short random walks from the initial difftree."""
    engine = default_engine()
    rng = random.Random(seed)
    states = []
    for _ in range(walks):
        tree = initial_difftree(queries)
        states.append(tree)
        for _ in range(steps):
            move = engine.random_move(tree, rng)
            if move is None:
                break
            tree = engine.apply(tree, move)
            states.append(tree)
    return states


@pytest.fixture
def walk_logs(fig1_queries):
    """Per log (Figure 1, sdss, tpch): the log and its walked states."""
    logs = [
        fig1_queries,
        [parse(sql) for sql in sdss_session_sql(6, seed=1)],
        [parse(sql) for sql in tpch_session_sql(6, seed=1)],
    ]
    return [(log, walked_states(log, seed)) for seed, log in enumerate(logs)]


def interleaved(walk_logs):
    """States of every log, interleaved so memo hits cross states."""
    columns = itertools.zip_longest(*(states for _, states in walk_logs))
    return [state for column in columns for state in column if state is not None]


class TestMemoizedMatcher:
    """The ALL-slot memo and the per-node widget memos change no result."""

    def test_assignment_for_matches_unmemoized_matcher(self, walk_logs):
        # Every state against every query of every log, so the cases
        # include the inexpressible pairings too.
        queries = [query for log, _ in walk_logs for query in log]
        states = interleaved(walk_logs)
        expected = []
        for state in states:
            for query in queries:
                reference = first_assignment_reference(state, query)
                expected.append(None if reference is None else list(reference.items()))
        assert any(items is not None and len(items) > 2 for items in expected)
        assert None in expected

        def served():
            out = []
            for state in states:
                for query in queries:
                    got = assignment_for(state, query)
                    out.append(None if got is None else list(got.items()))
            return out

        memo.clear_memo_caches()
        assert served() == expected  # cold: the tables fill as states go by
        # Warm: drop only the (tree, query) memo, so every call runs the
        # matcher against the filled ALL-slot memo.
        express._ASSIGN_MEMO.clear()
        hits = express._SLOT_MEMO.hits
        assert served() == expected
        assert express._SLOT_MEMO.hits > hits

    def test_domains_and_labels_match_cold_and_warm(self, walk_logs):
        nodes = {}
        for state in interleaved(walk_logs):
            for _, node in state.walk_paths():
                nodes.setdefault(node, None)

        def values(node):
            domain = domain_of(node) if node.kind in (ANY, OPT, MULTI) else None
            return domain, option_label(node), option_label(node, limit=10_000)

        cold = {}
        for node in nodes:
            memo.clear_memo_caches()
            cold[node] = values(node)
        assert any(domain is not None for domain, _, _ in cold.values())
        for node in nodes:
            assert values(node) == cold[node]
