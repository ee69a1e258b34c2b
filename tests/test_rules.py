"""Unit tests for each transformation rule and the rule engine."""

import pytest

from repro.difftree import (
    ANY,
    EMPTY_NODE,
    MULTI,
    OPT,
    all_node,
    any_node,
    expresses_all,
    initial_difftree,
    normalize,
    opt_node,
    wrap_ast,
)
from repro.difftree.dtnodes import ALL
from repro.rules import (
    Any2AllRule,
    DistributeRule,
    LiftRule,
    Move,
    MultiMergeRule,
    OptionalRule,
    RuleEngine,
    UnOptionalRule,
    default_engine,
)
from repro.sqlast import parse


def moves_of(rule, tree):
    out = []
    for path, node in tree.walk_paths():
        out.extend(rule.moves_at(node, path))
    return out


class TestLift:
    def test_lifts_common_unary_head(self):
        tree = normalize(
            any_node(
                [
                    wrap_ast(parse("select a from t").child_by_label("Where") or parse("select a from t where x < 1").at((2,))),
                    wrap_ast(parse("select a from t where y < 2").at((2,))),
                ]
            )
        )
        rule = LiftRule()
        moves = moves_of(rule, tree)
        assert moves
        rewritten = normalize(rule.rewrite(tree, moves[0]))
        assert rewritten.kind == ALL
        assert rewritten.label == "Where"
        assert rewritten.children[0].kind == ANY

    def test_no_move_for_mixed_heads(self):
        tree = any_node(
            [all_node("ColExpr", "a"), all_node("NumExpr", 1)]
        )
        assert not moves_of(LiftRule(), tree)

    def test_no_move_for_multi_child_alternatives(self, fig1_tree):
        # Select alternatives have several children: Lift must not fire.
        assert not [m for m in moves_of(LiftRule(), fig1_tree) if m.path == ()]


class TestAny2All:
    def test_factors_figure1_root(self, fig1_tree, fig1_queries):
        rule = Any2AllRule()
        moves = [m for m in moves_of(rule, fig1_tree) if m.path == ()]
        assert len(moves) == 1
        rewritten = normalize(rule.rewrite(fig1_tree, moves[0]))
        assert rewritten.kind == ALL
        assert rewritten.label == "Select"
        # Where slot must have gained an EMPTY alternative (q3 lacks WHERE).
        kinds = [c.kind for c in rewritten.children]
        assert ANY in kinds

    def test_positional_fallback_for_repeated_keys(self):
        # Two And nodes with 2 same-key children each.
        a = wrap_ast(parse("select a from t where x < 1 and y < 2").at((2, 0)))
        b = wrap_ast(parse("select a from t where x < 3 and y < 4").at((2, 0)))
        tree = normalize(any_node([a, b]))
        rule = Any2AllRule()
        moves = moves_of(rule, tree)
        assert moves
        rewritten = normalize(rule.rewrite(tree, moves[0]))
        assert rewritten.label == "And"
        assert len(rewritten.children) == 2

    def test_skips_unalignable_different_arity(self):
        a = wrap_ast(parse("select a from t where x < 1 and y < 2").at((2, 0)))
        b = wrap_ast(
            parse("select a from t where x < 3 and y < 4 and z < 5").at((2, 0))
        )
        tree = normalize(any_node([a, b]))
        assert not moves_of(Any2AllRule(), tree)


class TestOptional:
    def test_converts_empty_alternative(self):
        tree = any_node([EMPTY_NODE, all_node("ColExpr", "a")])
        rule = OptionalRule()
        moves = moves_of(rule, tree)
        assert moves
        rewritten = normalize(rule.rewrite(tree, moves[0]))
        assert rewritten.kind == OPT

    def test_multiple_remaining_alternatives_stay_any(self):
        tree = any_node(
            [EMPTY_NODE, all_node("ColExpr", "a"), all_node("ColExpr", "b")]
        )
        rewritten = normalize(OptionalRule().rewrite(tree, Move("Optional", ())))
        assert rewritten.kind == OPT
        assert rewritten.children[0].kind == ANY

    def test_unoptional_inverse(self):
        tree = opt_node(all_node("ColExpr", "a"))
        rewritten = normalize(UnOptionalRule().rewrite(tree, Move("UnOptional", ())))
        assert rewritten.kind == ANY
        assert rewritten.children[0].kind == "EMPTY"

    def test_round_trip_is_identity(self):
        tree = any_node([EMPTY_NODE, all_node("ColExpr", "a")])
        opt = normalize(OptionalRule().rewrite(tree, Move("Optional", ())))
        back = normalize(UnOptionalRule().rewrite(opt, Move("UnOptional", ())))
        assert back == normalize(tree)


class TestMulti:
    def test_merges_adjacent_between_conjuncts(self):
        ast = parse(
            "select a from t where u between 0 and 30 and g between 0 and 30"
        ).at((2, 0))
        tree = wrap_ast(ast)
        rule = MultiMergeRule()
        moves = moves_of(rule, tree)
        assert moves
        rewritten = normalize(rule.rewrite(tree, moves[0]))
        multis = [n for n in rewritten.walk() if n.kind == MULTI]
        assert len(multis) == 1

    def test_does_not_merge_under_between(self):
        # The lo/hi bounds of a BETWEEN share an align key but must not merge.
        ast = parse("select a from t where u between 0 and 30").at((2, 0))
        tree = wrap_ast(ast)
        assert not moves_of(MultiMergeRule(), tree)

    def test_does_not_merge_choice_siblings(self, fig1_tree):
        engine = default_engine()
        factored = engine.apply(
            fig1_tree,
            [m for m in engine.moves(fig1_tree) if m.rule_name == "Any2All"][0],
        )
        assert not [
            m for m in moves_of(MultiMergeRule(), factored) if m.path == ()
        ]

    def test_merge_preserves_expressibility(self):
        queries = [
            parse("select a from t where u between 0 and 30 and g between 5 and 25"),
        ]
        tree = initial_difftree(queries)
        engine = default_engine()
        multi_moves = [m for m in engine.moves(tree) if m.rule_name == "Multi"]
        assert multi_moves
        after = engine.apply(tree, multi_moves[0])
        assert expresses_all(after, queries)


class TestDistribute:
    def test_inverse_of_any2all(self, fig1_tree):
        engine = default_engine()
        factored = engine.apply(
            fig1_tree,
            [m for m in engine.moves(fig1_tree) if m.rule_name == "Any2All"][0],
        )
        distribute_moves = [
            m for m in engine.moves(factored) if m.rule_name == "Distribute"
        ]
        assert distribute_moves
        # Distributing every slot eventually returns to whole-query ANY.
        state = factored
        for _ in range(10):
            moves = [m for m in engine.moves(state) if m.rule_name == "Distribute"]
            if not moves:
                break
            state = engine.apply(state, moves[0])
        assert state.kind == ANY

    def test_distribute_over_opt(self):
        tree = all_node(
            "Where", None, (opt_node(all_node("ColExpr", "a")),)
        )
        rule = DistributeRule()
        moves = moves_of(rule, tree)
        assert moves
        rewritten = normalize(rule.rewrite(tree, moves[0]))
        assert rewritten.kind == ANY
        assert len(rewritten.children) == 2


class TestEngine:
    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError):
            RuleEngine([LiftRule(), LiftRule()])

    def test_unknown_exclusion_rejected(self):
        with pytest.raises(ValueError):
            default_engine(exclude=("NotARule",))

    def test_exclusion_removes_rule(self):
        engine = default_engine(exclude=("Distribute",))
        assert "Distribute" not in {r.name for r in engine.rules}

    def test_neighbors_dedupe_states(self, fig1_tree):
        engine = default_engine()
        neighbors = engine.neighbors(fig1_tree)
        keys = [s.canonical_key for _, s in neighbors]
        assert len(keys) == len(set(keys))
        assert fig1_tree.canonical_key not in keys

    def test_fanout_matches_move_count(self, fig1_tree):
        engine = default_engine()
        assert engine.fanout(fig1_tree) == len(engine.moves(fig1_tree))

    def test_random_move_is_applicable(self, sdss_tree):
        import random

        engine = default_engine()
        rng = random.Random(0)
        for _ in range(10):
            move = engine.random_move(sdss_tree, rng)
            assert move is not None
            engine.apply(sdss_tree, move)  # must not raise

    def test_random_move_none_when_no_moves(self):
        import random

        engine = default_engine()
        tree = wrap_ast(parse("select a from t"))
        assert engine.random_move(tree, random.Random(0)) is None

