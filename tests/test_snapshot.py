"""Session snapshots: capture/restore parity, refusals, and lifecycle.

The restore contract under test (see ``repro/serve/snapshot.py``):
restored state is observationally indistinguishable from never-crashed
state — an ``interface()`` on the unchanged log replays the cached
winner bit-identically, and a subsequent append + search continues from
the same warm state with identical results.  Corrupt, wrong-version and
wrong-context payloads are refused with :class:`SnapshotError`.
"""

import json
import multiprocessing

import pytest

from repro import Engine, GenerationConfig
from repro.core import prepare_search
from repro.cost import evaluate as evaluate_module
from repro.cost import kernel as kernel_module
from repro.difftree import tree_from_payload
from repro.serve import SNAPSHOT_SCHEMA_VERSION, SessionSnapshot, SnapshotError

TINY = GenerationConfig(time_budget_s=0.0, max_iterations=2, seed=0, final_cap=50)

#: One growing log per workload family the snapshot must round-trip.
WORKLOADS = ("sdss", "tpch", "synthetic.mixed_session")


def grown_session(engine, workload, session_id="snap", n=4, split=2):
    """Serve a session in two growing steps; returns (handle, last report)."""
    log = Engine.workload(workload, n, seed=5)
    handle = engine.session(session_id)
    handle.append(*log[:split])
    handle.interface()
    handle.append(*log[split:])
    return handle, handle.interface()


class TestRoundTrip:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_restore_serves_bit_identical_interface(self, workload):
        engine = Engine(config=TINY)
        _, original = grown_session(engine, workload)
        payload = json.loads(
            json.dumps(engine.snapshot_session("snap").to_payload())
        )

        other = Engine(config=TINY)
        handle = other.restore_snapshot(payload)
        restored = handle.interface()
        assert restored.source == "cache"  # zero new search work
        assert restored.cost == original.cost
        assert (
            restored.difftree.canonical_key == original.difftree.canonical_key
        )
        assert repr(restored.widget_tree) == repr(original.widget_tree)
        assert restored.search.stats == original.search.stats
        assert restored.search.history == original.search.history

    def test_restore_continues_search_identically(self):
        # The warm state (best + elites + sequences) must carry: growing
        # the restored session gives the uninterrupted session's result.
        log = Engine.workload("sdss", 6, seed=5)
        engine = Engine(config=TINY)
        session = engine.session("snap")
        session.append(*log[:2])
        session.interface()
        session.append(*log[2:4])
        session.interface()
        payload = engine.snapshot_session("snap").to_payload()

        other = Engine(config=TINY)
        restored = other.restore_snapshot(payload)
        # A cache-hit interface() here would change nothing: a read keeps
        # the warm state that covers the log, in original and restored
        # sessions alike, so the parity comparison appends straight away.
        restored.append(*log[4:])
        session.append(*log[4:])
        theirs = restored.interface()
        ours = session.interface()
        assert theirs.cost == ours.cost
        assert theirs.difftree.canonical_key == ours.difftree.canonical_key
        assert theirs.search.stats == ours.search.stats

    def test_carried_tree_rides_through_snapshot(self):
        # PR 9: the carried MCTS tree is an additive optional `carry`
        # field — the restored session's next searched serve rebases the
        # snapshotted tree instead of starting from an empty table.
        engine = Engine(config=TINY)
        grown_session(engine, "sdss")
        payload = json.loads(
            json.dumps(engine.snapshot_session("snap").to_payload())
        )
        assert payload["carry"] is not None
        assert payload["carry"]["nodes"]
        assert payload["carry"]["log_len"] == 4

        other = Engine(config=TINY)
        handle = other.restore_snapshot(payload)
        handle.append(*Engine.workload("sdss", 6, seed=5)[4:])
        report = handle.interface()
        assert report.source == "search"
        carry = report.to_dict()["provenance"]["carry"]
        assert carry is not None
        assert carry["nodes_harvested"] == len(payload["carry"]["nodes"])
        assert carry["nodes_carried"] >= 1  # the root always survives

    def test_payload_without_carry_restores(self):
        # Pre-PR-9 payloads have no `carry` key; restore must not care.
        engine = Engine(config=TINY)
        _, original = grown_session(engine, "sdss")
        payload = engine.snapshot_session("snap").to_payload()
        del payload["carry"]
        handle = Engine(config=TINY).restore_snapshot(payload)
        restored = handle.interface()
        assert restored.source == "cache"
        assert restored.cost == original.cost

    def test_restore_provenance_lands_in_reports(self):
        engine = Engine(config=TINY)
        grown_session(engine, "sdss")
        payload = engine.snapshot_session("snap").to_payload()
        other = Engine(config=TINY)
        handle = other.restore_snapshot(payload)
        provenance = handle.interface().to_dict()["provenance"]["snapshot"]
        assert provenance["restored"] is True
        assert provenance["generation"] == 4
        assert provenance["snapshot_version"] == SNAPSHOT_SCHEMA_VERSION
        # A never-restored engine reports no snapshot provenance.
        report = grown_session(Engine(config=TINY), "sdss", "fresh")[1]
        assert report.to_dict()["provenance"]["snapshot"] is None

    def test_restored_entry_captures_again_identically(self):
        engine = Engine(config=TINY)
        grown_session(engine, "sdss")
        payload = json.loads(
            json.dumps(engine.snapshot_session("snap").to_payload())
        )
        other = Engine(config=TINY)
        other.restore_snapshot(payload)
        assert other.snapshot_session("snap").to_payload() == payload

    def test_payload_is_json_native(self):
        engine = Engine(config=TINY)
        grown_session(engine, "sdss")
        payload = engine.snapshot_session("snap").to_payload()
        assert payload == json.loads(json.dumps(payload))


class TestRejection:
    def payload(self):
        engine = Engine(config=TINY)
        grown_session(engine, "sdss")
        return engine.snapshot_session("snap").to_payload()

    def test_unknown_version_rejected(self):
        payload = self.payload()
        payload["version"] = SNAPSHOT_SCHEMA_VERSION + 1
        with pytest.raises(SnapshotError, match="version"):
            SessionSnapshot.from_payload(payload)

    def test_non_dict_rejected(self):
        with pytest.raises(SnapshotError):
            SessionSnapshot.from_payload([1, 2, 3])

    def test_missing_keys_rejected(self):
        payload = self.payload()
        del payload["queries"]
        with pytest.raises(SnapshotError, match="missing"):
            SessionSnapshot.from_payload(payload)

    def test_generation_log_disagreement_rejected(self):
        payload = self.payload()
        payload["generation"] += 1
        with pytest.raises(SnapshotError, match="disagrees"):
            SessionSnapshot.from_payload(payload)

    def test_unknown_stats_fields_rejected(self):
        payload = self.payload()
        assert payload["cached"] is not None
        payload["cached"]["stats"]["bogus_counter"] = 7
        with pytest.raises(SnapshotError, match="unknown stats"):
            SessionSnapshot.from_payload(payload)

    def test_context_mismatch_refused(self):
        payload = self.payload()
        other = Engine(
            config=GenerationConfig(
                time_budget_s=0.0, max_iterations=3, seed=1, final_cap=50
            )
        )
        with pytest.raises(SnapshotError, match="context"):
            other.restore_snapshot(payload)

    def test_tampered_cost_refused_at_restore(self):
        payload = self.payload()
        payload["cached"]["cost"] += 1.0
        other = Engine(config=TINY)
        with pytest.raises(SnapshotError, match="disagrees"):
            other.restore_snapshot(payload)

    def test_value_outside_its_options_refused_at_restore(self):
        # A vector value that is not an option of its decision is refused
        # even when the stored cost is re-scored to match it.
        config = GenerationConfig(time_budget_s=0, max_iterations=2, seed=0)
        engine = Engine(config=config)
        log = Engine.workload("sdss", 6, seed=0)
        session = engine.session("a")
        session.append(*log)
        session.interface()
        payload = engine.snapshot_session("a").to_payload()
        cached = payload["cached"]
        cached["vector"][0] = ["range_slider", "M"]
        _, _, model, _, _ = prepare_search(log, config=config)
        kernel = model.kernel_for(tree_from_payload(cached["difftree"]))
        assert ("range_slider", "M") not in kernel.schema.options_for(0)
        cached["cost"] = kernel.evaluate(cached["vector"]).total
        with pytest.raises(SnapshotError, match="value 0"):
            Engine(config=config).restore_snapshot(payload)

    def test_corrupt_tree_payload_refused(self):
        payload = self.payload()
        payload["best"]["parent"] = payload["best"]["parent"][:-1]
        other = Engine(config=TINY)
        with pytest.raises(SnapshotError):
            other.restore_snapshot(payload)

    @pytest.mark.parametrize("slot", ["best", "carry", "cached"])
    def test_out_of_range_head_index_refused(self, slot):
        payload = self.payload()
        tree = {
            "best": lambda: payload["best"],
            "carry": lambda: payload["carry"]["nodes"][0]["state"],
            "cached": lambda: payload["cached"]["difftree"],
        }[slot]()
        tree["head"][-1] = len(tree["heads"])
        other = Engine(config=TINY)
        with pytest.raises(SnapshotError):
            other.restore_snapshot(payload)

    def test_negative_head_index_refused(self):
        # A negative index would otherwise land on another head from the
        # end of the table and silently restore a different tree.
        payload = self.payload()
        best = payload["best"]
        all_heads = [j for j, head in enumerate(best["heads"]) if head[0] == "ALL"]
        node = best["head"].index(all_heads[-1])
        best["head"][node] = all_heads[-2] - len(best["heads"])
        other = Engine(config=TINY)
        with pytest.raises(SnapshotError, match="head index"):
            other.restore_snapshot(payload)

    def test_root_parent_must_be_minus_one(self):
        payload = self.payload()
        payload["best"]["parent"][0] = 0
        other = Engine(config=TINY)
        with pytest.raises(SnapshotError, match="root parent"):
            other.restore_snapshot(payload)

    def test_malformed_carry_refused(self):
        payload = self.payload()
        payload["carry"] = {"universes": []}  # no nodes
        with pytest.raises(SnapshotError, match="carry"):
            SessionSnapshot.from_payload(payload)

    def test_corrupt_carry_parent_refused_at_restore(self):
        # A forward/self parent index breaks the topological-order
        # invariant the rebase relies on; the deep parse at restore time
        # must refuse it rather than build a cyclic table.
        payload = self.payload()
        assert payload["carry"]["nodes"]
        payload["carry"]["nodes"][-1]["parent"] = len(
            payload["carry"]["nodes"]
        )
        other = Engine(config=TINY)
        with pytest.raises(SnapshotError, match="carried-tree"):
            other.restore_snapshot(payload)


#: Payload corruptions a restore must refuse without touching the
#: session it would replace.
CORRUPTIONS = {
    "sql-not-text": lambda p: p["queries"][0].update(sql=5),
    "sql-does-not-parse": lambda p: p["queries"][0].update(sql="selec objid"),
    "log-len-float": lambda p: p.update(log_len=1.5),
    "log-len-text": lambda p: p.update(log_len="1"),
    "best-not-a-tree": lambda p: p.update(best="x"),
    "cost-off-by-one": lambda p: p["cached"].update(cost=p["cached"]["cost"] + 1.0),
}


class TestRefusedRestoreChangesNothing:
    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
    def test_served_session_survives(self, corrupt):
        source = Engine(config=TINY)
        grown_session(source, "sdss", "a", n=2, split=1)
        payload = source.snapshot_session("a").to_payload()
        corrupt(payload)

        engine = Engine(config=TINY)
        session = engine.session("a")
        session.append(Engine.workload("sdss", 1, seed=9)[0])
        served = session.interface()
        service = engine._incremental_service()
        log = engine.router.stream("a").sql()
        log_len, best, elite, sequences, tree = service.export_session("a")

        with pytest.raises(SnapshotError):
            engine.restore_snapshot(payload)
        assert engine.sessions() == ["a"]
        assert engine.router.stream("a").sql() == log
        after = service.export_session("a")
        assert after[:3] == (log_len, best, elite)
        assert after[3] == sequences
        assert after[4] is tree
        again = session.interface()
        assert again.source == "cache"
        assert again.result is served.result


class TestCapture:
    def test_capture_compiles_nothing_and_derives_no_widget_tree(self, monkeypatch):
        # Capture reads the cached winner's decision vector: it compiles no
        # kernel, and the widget tree of a report nobody read stays
        # underived until someone reads it.
        engine = Engine(config=TINY)
        _, report = grown_session(engine, "sdss")
        compiled, derived = [], []
        real_init = kernel_module.CostKernel.__init__
        real_derive = kernel_module.derive_widget_tree

        def counting_init(self, *args, **kwargs):
            compiled.append(self)
            real_init(self, *args, **kwargs)

        def counting_derive(tree, vector=None):
            derived.append(tree)
            return real_derive(tree, vector)

        monkeypatch.setattr(kernel_module.CostKernel, "__init__", counting_init)
        monkeypatch.setattr(kernel_module, "derive_widget_tree", counting_derive)
        monkeypatch.setattr(evaluate_module, "derive_widget_tree", counting_derive)
        assert engine.snapshot_session("snap").cached is not None
        assert (len(compiled), len(derived)) == (0, 0)
        assert report.widget_tree is report.widget_tree
        assert derived == [report.difftree]


class TestLifecycle:
    def test_evicted_restored_id_reopens_without_restore_provenance(self):
        # LRU eviction must forget restore provenance just as
        # drop_session does: a session reopened under an evicted
        # restored id is a fresh session, not a restored one.
        source = Engine(config=TINY)
        grown_session(source, "sdss", "a")
        payload = source.snapshot_session("a").to_payload()

        engine = Engine(config=TINY, max_sessions=1)
        engine.restore_snapshot(payload)
        engine.session("b")  # evicts "a" past the LRU bound
        reopened = engine.session("a")
        assert reopened.log_length == 0
        reopened.append(*Engine.workload("sdss", 2, seed=9))
        report = reopened.interface()
        assert engine.restored_session("a") is None
        assert report.to_dict()["provenance"]["snapshot"] is None

    def test_payload_with_unread_keys_restores(self):
        # Top-level keys that from_payload does not read (such as an
        # ``accounting`` record another writer added) are ignored, not
        # refused.
        engine = Engine(config=TINY)
        _, original = grown_session(engine, "sdss")
        payload = engine.snapshot_session("snap").to_payload()
        payload["accounting"] = {"delivered": 2}
        handle = Engine(config=TINY).restore_snapshot(payload)
        restored = handle.interface()
        assert restored.source == "cache"
        assert restored.cost == original.cost


def _child_payload(workload, queue):
    """Subprocess: serve a session and ship its snapshot payload."""
    engine = Engine(config=TINY)
    log = Engine.workload(workload, 4, seed=5)
    session = engine.session("x")
    session.append(*log)
    report = session.interface()
    queue.put(
        {
            "payload": json.loads(
                json.dumps(engine.snapshot_session("x").to_payload())
            ),
            "cost": report.cost,
            "fingerprint": report.difftree.canonical_key,
        }
    )


class TestCrossProcess:
    def test_two_processes_payloads_restore_to_identical_fingerprints(self):
        # Payloads written by other processes must decode through this
        # process's interning constructors (no process-local id may
        # leak into the wire format), landing both payloads on the same
        # canonical trees and costs.
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_child_payload, args=("sdss", queue))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        shipped = [queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=30)

        reports = []
        for item in shipped:
            engine = Engine(config=TINY)
            handle = engine.restore_snapshot(item["payload"])
            report = handle.interface()
            assert report.cost == item["cost"]
            assert report.difftree.canonical_key == item["fingerprint"]
            reports.append(report)
        assert (
            reports[0].difftree.canonical_key
            == reports[1].difftree.canonical_key
        )
        assert reports[0].cost == reports[1].cost
