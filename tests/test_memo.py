"""The ``repro.memo`` gate and its bounded LRU.

``carry`` lives in a ``ContextVar`` record, so a ``with`` block in one
thread never flips the path another thread runs, and every block
restores exactly the record it replaced.  :class:`BoundedLRU` keeps its
bound under concurrent writers.
"""

import threading

from repro import memo
from repro.memo import BoundedLRU


def test_gate_blocks_in_two_threads_do_not_interfere():
    # A enters carry(False); B then enters carry(True) and exits last.
    # With one process-wide flag, A would see B's "on" inside its own
    # block, and B's exit would restore A's "off" for the whole process.
    a_inside = threading.Barrier(2, timeout=10)
    b_inside = threading.Barrier(2, timeout=10)
    a_done = threading.Barrier(2, timeout=10)
    seen = {}

    def thread_a():
        with memo.carry(False):
            a_inside.wait()
            b_inside.wait()
            seen["a"] = memo.carry_enabled()
        a_done.wait()

    def thread_b():
        a_inside.wait()
        with memo.carry(True):
            b_inside.wait()
            a_done.wait()
            seen["b"] = memo.carry_enabled()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert seen == {"a": False, "b": True}
    assert memo.carry_enabled()


def test_nested_blocks_restore_the_outer_setting():
    assert memo.carry_enabled()
    with memo.carry(False):
        with memo.carry(True):
            assert memo.carry_enabled()
        assert not memo.carry_enabled()
    assert memo.carry_enabled()


class TestBoundedLRUThreadSafety:
    def test_concurrent_hammer_preserves_bound(self):
        cache = BoundedLRU(64)
        errors = []

        def hammer(worker: int) -> None:
            try:
                for i in range(2000):
                    key = (worker * 7 + i) % 200
                    cache[key] = i
                    cache.get((i * 13) % 200)
                    if i % 50 == 0:
                        len(cache), list(cache.items())
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64
