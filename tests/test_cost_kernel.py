"""Differential parity tests: compiled kernel vs reference evaluation.

The kernel's contract (see ``repro/cost/kernel.py``) is *exact* parity:
for any widget tree it adopts — including states reached through long
chains of single-decision deltas — every ``CostBreakdown`` field must
equal the walk-everything reference implementation bit for bit.  These
tests enforce that on randomized difftree / widget-tree / workload
triples drawn from the SDSS, TPC-H-style, and synthetic generators.
"""

import random

import pytest

from repro import Engine, GenerationConfig
from repro.cost import (
    BoundedLRU,
    CompiledSequence,
    CostModel,
    EvaluatedInterface,
    coordinate_descent,
    exhaustive_evaluation,
    sampled_evaluation,
    worst_sampled_evaluation,
)
from repro.cost import evaluate as evaluate_module
from repro.cost import kernel as kernel_module
from repro.difftree import changed_choices, initial_difftree
from repro.layout import Screen
from repro.rules import default_engine
from repro.sqlast import parse
from repro.widgets import (
    WidgetNode,
    decision_schema,
    derive_widget_tree,
    enumerate_decision_vectors,
)
from repro.workloads import (
    listing1_sql,
    mixed_session_log,
    sdss_session_sql,
    tpch_session_sql,
)


def random_states(sql_log, seed, steps=6, count=3):
    """Difftrees reached by random rewrite walks from the initial state."""
    asts = [parse(q) if isinstance(q, str) else q for q in sql_log]
    engine = default_engine()
    rng = random.Random(seed)
    states = [initial_difftree(asts)]
    for _ in range(count - 1):
        state = states[0]
        for _ in range(steps):
            move = engine.random_move(state, rng)
            if move is None:
                break
            state = engine.apply(state, move)
        states.append(state)
    return asts, states


def random_widget_tree(state, rng):
    """A uniformly random widget tree of ``state``."""
    _, schema = decision_schema(state)
    return derive_widget_tree(state, schema.random_vector(rng))


def enumerated_widget_trees(state, cap):
    """The widget trees of ``state`` over its capped decision product."""
    _, schema = decision_schema(state)
    return [
        derive_widget_tree(state, vector)
        for vector, _ in enumerate_decision_vectors(schema, cap=cap)
    ]


WORKLOADS = {
    "sdss-listing1": listing1_sql(1, 5),
    "sdss-session": sdss_session_sql(8, seed=3),
    "tpch-session": tpch_session_sql(8, seed=5),
    "synthetic-mixed": mixed_session_log(8, seed=7),
}


def assert_identical(kernel_bd, reference_bd, context=""):
    assert kernel_bd == reference_bd, (
        f"kernel/reference divergence {context}:\n"
        f"  kernel:    {kernel_bd}\n"
        f"  reference: {reference_bd}"
    )


class TestFullEvaluationParity:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_randomized_triples(self, workload):
        """model.evaluate == evaluate_reference on random widget trees."""
        asts, states = random_states(WORKLOADS[workload], seed=11)
        model = CostModel(asts, Screen.wide())
        rng = random.Random(13)
        for state in states:
            for trial in range(8):
                if trial == 0:
                    root = derive_widget_tree(state)
                else:
                    root = random_widget_tree(state, rng)
                assert_identical(
                    model.evaluate(state, root),
                    model.evaluate_reference(state, root),
                    context=f"{workload} trial {trial}",
                )
        # Every derived tree must go through the kernel, not the fallback.
        assert model.kernel_stats.fallback_evals == 0
        assert model.kernel_stats.adopted_evals > 0

    def test_narrow_screen_infeasible_parity(self):
        """Overflow fields and the infeasible rank agree too."""
        asts, states = random_states(WORKLOADS["sdss-session"], seed=17)
        model = CostModel(asts, Screen(120, 90))
        rng = random.Random(19)
        for state in states:
            root = random_widget_tree(state, rng)
            kernel_bd = model.evaluate(state, root)
            reference_bd = model.evaluate_reference(state, root)
            assert_identical(kernel_bd, reference_bd)
            assert not kernel_bd.feasible
            assert kernel_bd.rank == reference_bd.rank

    def test_hand_built_tree_falls_back(self):
        """Foreign widget trees bypass the kernel but still evaluate."""
        asts, states = random_states(WORKLOADS["sdss-listing1"], seed=23)
        model = CostModel(asts, Screen.wide())
        foreign = WidgetNode(widget="label", title="not derived")
        breakdown = model.evaluate(states[0], foreign)
        assert_identical(breakdown, model.evaluate_reference(states[0], foreign))
        assert model.kernel_stats.fallback_evals == 1


class TestDeltaReevaluationParity:
    """reevaluate(delta) must equal full evaluation — the core invariant."""

    @pytest.mark.parametrize("workload", ["sdss-session", "tpch-session"])
    def test_enumeration_delta_chain(self, workload):
        """Every candidate of a delta-patched enumeration matches the
        reference evaluation of the corresponding real widget tree."""
        asts, states = random_states(WORKLOADS[workload], seed=29)
        model = CostModel(asts, Screen.wide())
        state = states[1]
        kernel = model.kernel_for(state)
        cap = 300
        reference = [
            model.evaluate_reference(state, root)
            for root in enumerated_widget_trees(state, cap)
        ]
        compiled = [bd for _, bd in kernel.iter_enumeration(cap=cap)]
        assert len(reference) == len(compiled)
        assert len(compiled) > 1
        for i, (kernel_bd, reference_bd) in enumerate(zip(compiled, reference)):
            assert_identical(kernel_bd, reference_bd, context=f"candidate {i}")
        # The chain really ran on deltas, not repeated full loads.
        assert model.kernel_stats.delta_evals >= len(compiled) - 1

    def test_random_delta_chain(self):
        """Random walks through decision space: patch vs from-scratch."""
        asts, states = random_states(WORKLOADS["tpch-session"], seed=31)
        model = CostModel(asts, Screen.wide())
        state = states[1]
        kernel = model.kernel_for(state)
        schema = kernel.schema
        if not schema.decisions:
            pytest.skip("state has no free decisions")
        rng = random.Random(37)
        vector = schema.greedy_vector()
        kernel.set_vector(vector)
        for step in range(60):
            index = rng.randrange(len(schema.decisions))
            options = [
                value
                for value in schema.options_for(index)
                if value != vector[index]
            ]
            if not options:
                continue
            value = rng.choice(options)
            vector[index] = value
            kernel.apply_delta(index, value)
            patched = kernel.breakdown()
            reference_bd = model.evaluate_reference(
                state, kernel.materialize(vector)
            )
            assert_identical(patched, reference_bd, context=f"step {step}")

    def test_tree_enumerator_deltas_line_up(self):
        """Each step's changes turn the previous vector into the next."""
        asts, states = random_states(WORKLOADS["sdss-listing1"], seed=41)
        _, schema = decision_schema(states[1])
        previous = None
        for vector, changes in enumerate_decision_vectors(schema, cap=50):
            if previous is None:
                assert changes is None
            else:
                assert changes  # consecutive candidates differ
                patched = list(previous)
                for index, value in changes:
                    patched[index] = value
                assert patched == vector
                assert tuple(patched) != previous
            previous = tuple(vector)
        assert previous is not None


class TestOptimizerEquivalence:
    """Kernel-backed optimizers pick what reference scoring of the same
    candidate widget trees picks."""

    def legacy_sampled(self, model, tree, k, rng, include_greedy=True):
        samples = []
        if include_greedy:
            samples.append(derive_widget_tree(tree))
            k = max(0, k - 1)
        for _ in range(k):
            samples.append(random_widget_tree(tree, rng))
        best = None
        for root in samples:
            breakdown = model.evaluate_reference(tree, root)
            if best is None or breakdown.rank < best[1].rank:
                best = (root, breakdown)
        return best

    def test_sampled_evaluation_matches_legacy(self):
        asts, states = random_states(WORKLOADS["sdss-session"], seed=43)
        model = CostModel(asts, Screen.wide())
        for state in states:
            kernel_result = sampled_evaluation(
                model, state, k=6, rng=random.Random(5)
            )
            legacy_root, legacy_bd = self.legacy_sampled(
                model, state, k=6, rng=random.Random(5)
            )
            assert kernel_result.breakdown == legacy_bd
            assert kernel_result.widget_tree == legacy_root

    def test_exhaustive_matches_legacy_enumeration(self):
        asts, states = random_states(WORKLOADS["tpch-session"], seed=47)
        model = CostModel(asts, Screen.wide())
        # Pick the state with the smallest full decision product so the
        # exhaustive path (not the coordinate-descent fallback) runs.
        state = min(
            states, key=lambda s: model.kernel_for(s).schema.num_assignments
        )
        cap = model.kernel_for(state).schema.num_assignments
        assert cap <= 5000, "workload produced no enumerable state"
        result = exhaustive_evaluation(model, state, cap=cap)
        best = None
        for root in enumerated_widget_trees(state, cap):
            breakdown = model.evaluate_reference(state, root)
            if best is None or breakdown.rank < best[1].rank:
                best = (root, breakdown)
        assert result.breakdown == best[1]
        assert result.widget_tree == best[0]

    def test_coordinate_descent_and_worst_sampled_are_consistent(self):
        asts, states = random_states(WORKLOADS["sdss-session"], seed=53)
        model = CostModel(asts, Screen.wide())
        state = states[1]
        descended = coordinate_descent(model, state)
        assert_identical(
            descended.breakdown,
            model.evaluate_reference(state, descended.widget_tree),
        )
        worst = worst_sampled_evaluation(model, state, k=8, rng=random.Random(9))
        assert_identical(
            worst.breakdown,
            model.evaluate_reference(state, worst.widget_tree),
        )


class TestWidgetTreeOnRead:
    """Scored states keep their decision vector; only a read derives a tree."""

    def test_only_the_delivered_winner_is_derived(self, monkeypatch):
        derived = []

        def counting(tree, vector=None):
            derived.append(tree)
            return real(tree, vector)

        real = kernel_module.derive_widget_tree
        monkeypatch.setattr(kernel_module, "derive_widget_tree", counting)
        monkeypatch.setattr(evaluate_module, "derive_widget_tree", counting)
        engine = Engine(config=GenerationConfig(time_budget_s=0, max_iterations=3, seed=0))
        report = engine.generate(Engine.workload("sdss", 6, seed=0))
        assert report.search.stats.states_evaluated > 1
        assert len(derived) <= 1
        first = report.result.widget_tree
        assert report.result.widget_tree is first
        assert derived == [report.difftree]

    def test_explicit_widget_tree_is_returned(self):
        asts, states = random_states(WORKLOADS["sdss-session"], seed=59)
        model = CostModel(asts, Screen.wide())
        state = states[1]
        root = random_widget_tree(state, random.Random(3))
        breakdown = model.evaluate(state, root)
        built = EvaluatedInterface(tree=state, widget_tree=root, breakdown=breakdown)
        assert built.widget_tree is root
        assert built.vector is None
        lazy = sampled_evaluation(model, state, k=3, rng=random.Random(3))
        assert lazy.widget_tree == derive_widget_tree(state, lazy.vector)
        assert lazy.widget_tree is lazy.widget_tree
        assert lazy == EvaluatedInterface(state, lazy.widget_tree, lazy.breakdown)


class TestCompiledSequence:
    def test_extension_equals_fresh_compile(self):
        """extend() over appended queries == compiling the full log."""
        sql = tpch_session_sql(10, seed=61)
        asts = [parse(q) for q in sql]
        tree = initial_difftree(asts)  # expresses every query in the log
        fresh = CompiledSequence.compile(tree, asts)
        extended = CompiledSequence.compile(tree, asts[:6]).extend(tree, asts[6:])
        assert fresh.ok and extended.ok
        assert list(fresh.queries) == list(extended.queries)
        assert fresh.assignments == extended.assignments
        assert fresh.changes.pair_paths == extended.changes.pair_paths
        assert fresh.changes.pair_ids == extended.changes.pair_ids
        assert fresh.changes.paths == extended.changes.paths

    def test_interning_preserves_sorted_path_order(self):
        sql = sdss_session_sql(6, seed=67)
        asts = [parse(q) for q in sql]
        tree = initial_difftree(asts)
        sequence = CompiledSequence.compile(tree, asts)
        changes = sequence.changes
        assert list(changes.paths) == sorted(changes.paths)
        for pair_ids, pair_paths in zip(changes.pair_ids, changes.pair_paths):
            assert list(pair_ids) == sorted(pair_ids)
            assert [changes.paths[i] for i in pair_ids] == list(pair_paths)

    def test_pair_sets_match_changed_choices(self):
        sql = listing1_sql(1, 5)
        asts = [parse(q) for q in sql]
        tree = initial_difftree(asts)
        sequence = CompiledSequence.compile(tree, asts)
        for pair_paths, (a, b) in zip(
            sequence.changes.pair_paths,
            zip(sequence.assignments, sequence.assignments[1:]),
        ):
            assert list(pair_paths) == changed_choices(a, b)

    def test_model_extends_carried_sequences(self):
        """adopt_sequences lets a grown model diff only the new pairs."""
        sql = sdss_session_sql(9, seed=71)
        asts = [parse(q) for q in sql]
        # A tree expressing the *full* log (the serve layer's extended
        # best state): the old model saw only the first six queries.
        tree = initial_difftree(asts)
        old_model = CostModel(asts[:6], Screen.wide())
        carried = {tree.canonical_key: old_model.compiled_sequence(tree)}

        new_model = CostModel(asts, Screen.wide())
        new_model.adopt_sequences(carried)
        kernel = new_model.kernel_for(tree)
        assert new_model.kernel_stats.sequences_extended == 1
        assert kernel.sequence.ok
        fresh_model = CostModel(asts, Screen.wide())
        fresh = fresh_model.kernel_for(tree).sequence
        assert kernel.sequence.assignments == fresh.assignments
        assert kernel.sequence.changes.pair_ids == fresh.changes.pair_ids


class TestBoundedLRU:
    def test_evicts_oldest_one_at_a_time(self):
        lru = BoundedLRU(3)
        for key in "abc":
            lru[key] = key
        lru["d"] = "d"
        assert "a" not in lru and len(lru) == 3
        assert lru.evictions == 1

    def test_get_refreshes_recency(self):
        lru = BoundedLRU(2)
        lru["a"] = 1
        lru["b"] = 2
        assert lru.get("a") == 1  # refresh: now b is oldest
        lru["c"] = 3
        assert "b" not in lru and "a" in lru

    def test_state_evaluator_cache_is_bounded(self):
        from repro.search.common import StateEvaluator

        asts = [parse(q) for q in listing1_sql(1, 3)]
        model = CostModel(asts, Screen.wide())
        evaluator = StateEvaluator(model)
        evaluator._cache.capacity = 2  # shrink for the test
        _, states = random_states(listing1_sql(1, 3), seed=73, count=3)
        seen = set()
        for state in states:
            evaluator.evaluate(state)
            seen.add(state.canonical_key)
        assert len(evaluator._cache) <= 2
        # The incumbent is still tracked even if its entry was evicted.
        assert evaluator.best is not None


class TestDeltaValidation:
    """apply_delta rejects malformed patches with actionable errors."""

    def _kernel(self):
        asts, states = random_states(WORKLOADS["sdss-session"], seed=41)
        model = CostModel(asts, Screen.wide())
        kernel = model.kernel_for(states[-1])
        kernel.set_vector(kernel.schema.greedy_vector())
        return kernel

    def test_index_out_of_range_names_decision_count(self):
        kernel = self._kernel()
        count = len(kernel.schema.decisions)
        for bad in (-1, count, count + 7):
            with pytest.raises(ValueError, match=f"schema has {count} decisions"):
                kernel.apply_delta(bad, "horizontal")

    def test_widget_decision_rejects_non_pair_values(self):
        kernel = self._kernel()
        indices = kernel.schema.widget_indices
        if not indices:
            pytest.skip("state has no widget decisions")
        with pytest.raises(ValueError, match="name, size_class"):
            kernel.apply_delta(indices[0], "dropdown")  # not a pair

    def test_orientation_decision_rejects_unknown_names(self):
        kernel = self._kernel()
        indices = kernel.schema.orientation_indices
        if not indices:
            pytest.skip("state has no orientation decisions")
        with pytest.raises(ValueError, match="orientation decision"):
            kernel.apply_delta(indices[0], "diagonal")

    def test_failed_validation_leaves_state_untouched(self):
        kernel = self._kernel()
        before = kernel.breakdown()
        count = len(kernel.schema.decisions)
        with pytest.raises(ValueError):
            kernel.apply_delta(count, "horizontal")
        assert_identical(kernel.breakdown(), before, "after rejected delta")


class TestBufferReuse:
    """set_vector reuses preallocated node buffers instead of reallocating."""

    def test_buffers_keep_identity_across_set_vector(self):
        asts, states = random_states(WORKLOADS["tpch-session"], seed=43)
        model = CostModel(asts, Screen.wide())
        kernel = model.kernel_for(states[-1])
        buffers = (kernel._name, kernel._size, kernel._box_w, kernel._box_h)
        rng = random.Random(7)
        for _ in range(5):
            kernel.set_vector(kernel.schema.random_vector(rng))
            assert kernel._name is buffers[0]
            assert kernel._size is buffers[1]
            assert kernel._box_w is buffers[2]
            assert kernel._box_h is buffers[3]

    def test_delta_equals_full_invariant(self):
        """A delta chain == set_vector of the final vector, field for field."""
        asts, states = random_states(WORKLOADS["synthetic-mixed"], seed=47)
        model = CostModel(asts, Screen.wide())
        # kernel_for is LRU-cached per model, so the reference kernel must
        # come from a *separate* model to be an independent object.
        reference_model = CostModel(asts, Screen.wide())
        for state in states:
            kernel = model.kernel_for(state)
            schema = kernel.schema
            if not schema.decisions:
                continue
            rng = random.Random(53)
            vector = schema.greedy_vector()
            kernel.set_vector(vector)
            for _ in range(20):
                index = rng.randrange(len(schema.decisions))
                options = [
                    o for o in schema.options_for(index) if o != vector[index]
                ]
                if not options:
                    continue
                vector[index] = options[rng.randrange(len(options))]
                kernel.apply_delta(index, vector[index])
                delta_bd = kernel.breakdown()
                fresh = reference_model.kernel_for(state)
                fresh.set_vector(vector)
                assert_identical(
                    delta_bd, fresh.breakdown(), "delta vs full set_vector"
                )
