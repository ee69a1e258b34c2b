"""Serving a growing query log with incremental regeneration.

Simulates an analyst session streaming queries in, through the Engine
API: after each batch of appends `session.interface()` regenerates the
interface, warm-starting from the previous run instead of searching
from scratch, and serving exact repeats straight from the cache — the
report's provenance says which happened.

Run:  PYTHONPATH=src python examples/streaming_service.py
"""

from __future__ import annotations

from repro import Engine, GenerationConfig

CHUNK = 5


def main() -> None:
    engine = Engine(config=GenerationConfig(time_budget_s=1.0, seed=0))
    log = engine.workload("sdss", 20, seed=0)

    session = engine.session("analyst-42")
    report = None
    for start in range(0, len(log), CHUNK):
        session.append(*log[start : start + CHUNK])
        report = session.interface()
        stats = report.search.stats
        print(
            f"log={session.log_length:>2}  cost={report.cost:7.2f}  "
            f"{report.timings['total_s']:5.2f}s  source={report.source}  "
            f"warm-seeds={stats.warm_states_seeded}  "
            f"iterations={stats.iterations}"
        )

    # An unchanged log is a pure cache hit: no search at all.
    repeat = session.interface()
    assert repeat.source == "cache"
    assert repeat.result is report.result
    print(
        f"repeat: source={repeat.source} in {repeat.timings['total_s'] * 1000:.1f} ms "
        f"(same interface: {repeat.result is report.result}, "
        f"cache stats: {engine.cache_stats})"
    )

    print(f"\nHistory: {len(session.history())} reports for this session")
    print("\nFinal interface:\n")
    print(report.ascii_art)


if __name__ == "__main__":
    main()
