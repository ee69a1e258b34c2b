"""The ``repro.memo`` gate: one context-local record, one switch.

``carry`` lives in a ``ContextVar`` record, so a ``with`` block in one
thread never flips the path another thread runs, and every block
restores exactly the record it replaced.
"""

import threading

from repro import memo


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

