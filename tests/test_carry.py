"""Cross-append carry of the MCTS search tree + log retention (PR 9).

Covers the carry unit semantics (harvest cap / parent closure, rebase
survival rules), the serve-layer integration (report provenance,
gate-off parity oracle, eviction releasing the tree), log retention
with bounded recompute (``LogStream.remove`` / ``retain``,
``CompiledSequence.without``, the ``search.carry.*`` retention
counters), the ``PendingSearch.finish()`` double-call contract, and
slice-invariance of carried MCTS runs.
"""

import gc

import pytest

from repro import Engine, GenerationConfig, memo
from repro.cost import CostModel
from repro.cost.kernel import CompiledSequence
from repro.difftree import initial_difftree
from repro.layout import Screen
from repro.rules import default_engine
from repro.search import CarriedTree, MCTS
from repro.search.carry import STAT_DECAY, STATS
from repro.search.mcts import _TreeNode
from repro.serve import LogStream, log_key
from repro.sqlast import parse

TINY = GenerationConfig(time_budget_s=0.0, max_iterations=3, seed=0, final_cap=50)


def sdss(n, seed=5):
    return Engine.workload("sdss", n, seed=seed)


def run_mcts(queries, max_iterations=6, seed=3):
    """One finished iteration-capped MCTS run; returns (model, initial, mcts)."""
    model = CostModel(queries, Screen.wide())
    initial = initial_difftree(queries)
    mcts = MCTS(
        model,
        default_engine(),
        GenerationConfig(
            time_budget_s=0.0, max_iterations=max_iterations, seed=seed
        ),
    )
    mcts.open(initial)
    mcts.step()
    mcts.result()
    return model, initial, mcts


def assert_parent_closed(table):
    for node in table.values():
        assert node.parent_key is None or node.parent_key in table


class TestCarriedTreeUnit:
    def test_harvest_keeps_whole_table_under_cap(self):
        queries = [parse(q) for q in sdss(2)]
        model, _, mcts = run_mcts(queries)
        carried = CarriedTree.harvest(mcts, model, log_len=2, max_nodes=10_000)
        assert set(carried.nodes) == set(mcts.nodes)
        assert list(carried.nodes) == list(mcts.nodes)  # insertion order
        assert set(carried.universes) == set(carried.nodes)
        assert carried.log_len == 2
        # Harvested nodes are copies: mutating the live table must not
        # leak into the carried one.
        key = next(iter(mcts.nodes))
        mcts.nodes[key].visits += 100
        assert carried.nodes[key].visits != mcts.nodes[key].visits

    def test_harvest_cap_is_parent_closed(self):
        queries = [parse(q) for q in sdss(3)]
        model, _, mcts = run_mcts(queries, max_iterations=12)
        assert len(mcts.nodes) > 4
        carried = CarriedTree.harvest(mcts, model, log_len=3, max_nodes=4)
        assert 1 <= len(carried.nodes) <= 4
        assert_parent_closed(carried.nodes)

    def test_rebase_duplicate_append_carries_everything(self):
        # Appending a repeat of the last query changes no choice paths:
        # every carried node survives.  Non-root survivors keep their
        # mean rewards with visit mass decayed (exploration pressure
        # returns after a rebase); the re-anchored root restarts stat-free.
        queries = [parse(q) for q in sdss(3)]
        model, initial, mcts = run_mcts(queries)
        carried = CarriedTree.harvest(mcts, model, log_len=3)
        table, prov = carried.rebase(initial, queries[-1], [queries[-1]])
        assert prov["nodes_carried"] == len(carried.nodes)
        assert prov["nodes_invalidated"] == 0
        assert prov["appended"] == 1
        assert_parent_closed(table)
        for key, node in carried.nodes.items():
            twin = table[key]
            if twin.parent_key is None:
                assert twin.visits == 0 and twin.reward_sum == 0.0
                continue
            assert twin.visits == max(1, int(node.visits * STAT_DECAY))
            if node.visits:
                assert twin.reward_sum / twin.visits == pytest.approx(
                    node.reward_sum / node.visits
                )

    def test_rebase_novel_append_reanchors_root_stat_free(self):
        # The root always survives re-anchored to the grown log's initial
        # state, but its statistics are dropped: carried root visits
        # (normalized against the prior cost range) would crush the UCT
        # exploration bonus and starve the re-expansion the append makes
        # necessary.
        base = [parse(q) for q in sdss(4)]
        model, _, mcts = run_mcts(base[:3], max_iterations=10)
        carried = CarriedTree.harvest(mcts, model, log_len=3)
        new_initial = initial_difftree(base)
        table, prov = carried.rebase(new_initial, base[2], base[3:])
        root = table[new_initial.canonical_key]
        assert root.parent_key is None
        assert root.visits == 0
        assert root.reward_sum == 0.0
        assert not root.expanded
        assert root.state is new_initial
        assert prov["nodes_carried"] + prov["nodes_invalidated"] == len(
            carried.nodes
        )
        assert_parent_closed(table)
        # A parent whose child was invalidated re-enters the frontier.
        if prov["nodes_invalidated"]:
            assert prov["nodes_reopened"] >= 0


class TestFinishContract:
    def test_finish_twice_raises(self):
        engine = Engine(config=TINY)
        engine.session("s").append(*sdss(2))
        pending = engine._incremental_service().open_search("s")
        assert pending.cached is None
        pending.task.step()
        pending.finish()
        with pytest.raises(RuntimeError, match="finish"):
            pending.finish()


def live_tree_nodes():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is _TreeNode)


class TestServeIntegration:
    def test_carry_provenance_in_reports(self):
        engine = Engine(config=TINY)
        session = engine.session("carry")
        log = sdss(3)
        session.append(*log[:2])
        first = session.interface()
        assert first.to_dict()["provenance"]["carry"] is None  # nothing carried yet
        session.append(log[2])
        second = session.interface()
        carry = second.to_dict()["provenance"]["carry"]
        assert carry is not None
        assert carry["appended"] == 1
        assert carry["nodes_carried"] >= 1  # the root always survives
        assert (
            carry["nodes_carried"] + carry["nodes_invalidated"]
            == carry["nodes_harvested"]
        )

    def test_gate_off_restores_reference_path(self):
        # The parity oracle: with the carry gate off, serving matches the
        # rebuild-from-scratch path and reports no carry provenance.
        log = sdss(3)

        def serve(enabled):
            with memo.carry(enabled):
                engine = Engine(config=TINY)
                session = engine.session("oracle")
                session.append(*log[:2])
                session.interface()
                session.append(log[2])
                return session.interface()

        carried, reference = serve(True), serve(False)
        assert reference.to_dict()["provenance"]["carry"] is None
        assert carried.cost == pytest.approx(reference.cost)
        assert carried.log_size == reference.log_size

    def test_drop_session_releases_carried_tree(self):
        session = Engine(config=TINY).session("s")
        session.append(*sdss(2))
        before = live_tree_nodes()
        session.interface()
        assert live_tree_nodes() > before  # the carried tree is alive
        assert session.drop()
        assert live_tree_nodes() <= before

    def test_engine_lru_eviction_releases_carried_tree(self):
        engine = Engine(config=TINY, max_sessions=1)
        before = live_tree_nodes()
        session = engine.session("a")
        session.append(*sdss(2))
        session.interface()
        assert live_tree_nodes() > before
        engine.session("b").append(*sdss(1))  # evicts "a", the only other session
        assert live_tree_nodes() <= before


class TestRetention:
    def test_remove_semantics(self):
        stream = LogStream()
        log = sdss(3)
        stream.append(*log)
        assert stream.remove([]) == ()
        assert stream.remove([0, -1]) == (0, 2)
        assert len(stream) == 1
        assert stream.asts() == (parse(log[1]),)
        with pytest.raises(IndexError):
            stream.remove([5])

    def test_remove_changes_log_key_for_duplicates(self):
        stream = LogStream()
        log = sdss(2)
        stream.append(log[0], log[0], log[1])
        key = stream.log_key()
        # Dropping one copy of a repeated query shortens the sequence,
        # so the key changes although the distinct set does not.
        stream.remove([0])
        assert stream.log_key() != key
        assert stream.log_key() == log_key(stream.asts())
        shorter = stream.log_key()
        stream.remove([0])  # the last copy
        assert stream.log_key() not in (key, shorter)

    def test_retain_last_n(self):
        stream = LogStream()
        stream.append(*sdss(3))
        assert stream.retain(last_n=5) == ()
        assert stream.retain(last_n=2) == (0,)
        assert len(stream) == 2

    def test_retain_needs_a_bound(self):
        stream = LogStream()
        stream.append(*sdss(1))
        with pytest.raises(TypeError, match="last_n"):
            stream.retain()
        with pytest.raises(ValueError):
            stream.retain(last_n=-1)

    @pytest.mark.parametrize(
        "dropped,expected_rediffs",
        [([0], 0), ([3], 0), ([1], 1), ([1, 2], 1)],
    )
    def test_compiled_sequence_without_matches_recompile(
        self, dropped, expected_rediffs
    ):
        queries = [parse(q) for q in sdss(4)]
        tree = initial_difftree(queries)
        seq = CompiledSequence.compile(tree, queries)
        shrunk, rediffed = seq.without(dropped)
        assert rediffed == expected_rediffs
        kept = [q for i, q in enumerate(queries) if i not in dropped]
        fresh = CompiledSequence.compile(tree, kept)
        assert shrunk.queries == fresh.queries
        assert shrunk.changes.pair_paths == fresh.changes.pair_paths

    def test_generator_retention_counters(self):
        session = Engine(config=TINY).session("s")
        session.append(*sdss(4))
        session.interface()
        before = STATS.snapshot()
        assert session.retain(last_n=3) == 3
        after = STATS.snapshot()
        assert after["retention_removals"] - before["retention_removals"] == 1
        retracted = after["retention_retracts"] - before["retention_retracts"]
        assert retracted >= 1
        # Prefix retention rejoins at most one boundary pair per carried
        # sequence — the bounded-recompute contract.
        rediffed = (
            after["retention_pairs_rediffed"] - before["retention_pairs_rediffed"]
        )
        assert rediffed <= retracted
        shrunk = session.interface()
        assert len(shrunk.result.queries) == 3

    def test_generator_remove_midlog_and_continue(self):
        session = Engine(config=TINY).session("s")
        log = sdss(4)
        session.append(*log)
        session.interface()
        assert session.remove([1]) == 3
        regenerated = session.interface()
        assert len(regenerated.result.queries) == 3
        kept = [parse(q) for i, q in enumerate(log) if i != 1]
        assert [q.fingerprint for q in regenerated.result.queries] == [
            q.fingerprint for q in kept
        ]


class TestSlicedParity:
    """An iteration-sliced carried run is bit-identical to a monolithic one.

    The baselines' sliced-parity tests live in ``test_search.py``.
    """

    def _assert_identical(self, mono, sliced):
        assert mono.best_cost == sliced.best_cost
        assert mono.best.tree.canonical_key == sliced.best.tree.canonical_key
        assert mono.stats == sliced.stats
        assert [c for _, c in mono.history] == [c for _, c in sliced.history]

    def test_mcts_carried_sliced_matches_monolithic(self):
        base = [parse(q) for q in sdss(3)]
        model0, _, mcts0 = run_mcts(base[:2], max_iterations=6)
        carried = CarriedTree.harvest(mcts0, model0, log_len=2)
        full_initial = initial_difftree(base)
        config = GenerationConfig(time_budget_s=0.0, max_iterations=8, seed=3)

        def make_task():
            # rebase() returns a fresh copy-table each call, so the two
            # runs never share mutable nodes; a fresh model each keeps
            # the per-model kernel counters comparable.
            table, _ = carried.rebase(full_initial, base[1], base[2:])
            model = CostModel(base, Screen.wide())
            return MCTS(model, default_engine(), config, node_table=table).open(
                full_initial
            )

        mono, sliced = make_task(), make_task()
        mono.step()
        while not sliced.done:
            sliced.step(n_iterations=3)
        self._assert_identical(mono.result(), sliced.result())
