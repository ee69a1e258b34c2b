"""BENCH-SERVE: concurrent multi-session scheduling vs FIFO serving.

The scheduling claim (`repro.engine.SessionScheduler`): when N
sessions with growing query logs arrive together, slicing their
searches round-robin on one thread delivers every session's *first* interface after
roughly the cohort's first-step work, while FIFO serving makes session N
wait for every predecessor's *entire* script — so the scheduler's p95
first-interface latency beats FIFO by >= 2x at equal per-search
iteration budgets, with bit-for-bit identical per-session results.

Both sides run through the same `Engine.scheduler()` machinery — FIFO is
the `policy="fifo"` degenerate case (no preemption, submission order) —
and a serial `Engine.session()` loop provides the pre-scheduler
reference the per-session costs must match exactly (the searches are
iteration-capped and seed-fixed, so slicing must not change results).

Standalone script (CI smoke target), runnable without pytest:

    PYTHONPATH=src python benchmarks/bench_serving.py \
        --sessions 8 --chunks 3 --chunk-size 2 --iterations 8 \
        --json BENCH_serving.json --strict

With ``--strict`` the script exits non-zero unless, for every workload:
scheduler p95 >= 2x better than FIFO p95, all per-session costs match
across fifo/round_robin/serial, and every ticket completed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Dict, List, Tuple

from repro import Engine, GenerationConfig
from repro.workloads import get_workload

#: The growing-log session generators the bench serves.
WORKLOADS = ("sdss", "tpch")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1])."""
    ranked = sorted(values)
    index = max(0, math.ceil(q * len(ranked)) - 1)
    return ranked[index]


def session_scripts(
    workload: str, sessions: int, chunks: int, chunk_size: int
) -> Dict[str, List[Tuple[str, ...]]]:
    """One growing-log script per session (distinct seeds => distinct logs)."""
    scripts: Dict[str, List[Tuple[str, ...]]] = {}
    factory = get_workload(workload)
    for i in range(sessions):
        log = factory(chunks * chunk_size, seed=i)
        scripts[f"{workload}-{i}"] = [
            tuple(log[start : start + chunk_size])
            for start in range(0, chunks * chunk_size, chunk_size)
        ]
    return scripts


def run_scheduler(
    policy: str,
    scripts: Dict[str, List[Tuple[str, ...]]],
    config: GenerationConfig,
    slice_iterations: int,
) -> dict:
    """Drain all scripts under one policy on a fresh engine."""
    engine = Engine(config=config)
    scheduler = engine.scheduler(
        policy=policy,
        slice_iterations=None if policy == "fifo" else slice_iterations,
    )
    for session_id, chunks in scripts.items():
        scheduler.submit(session_id, chunks)
    t0 = time.perf_counter()
    tickets = scheduler.run()
    wall_s = time.perf_counter() - t0
    return {
        "policy": policy,
        "wall_s": round(wall_s, 3),
        "all_done": all(t.state == "done" for t in tickets),
        "first_interface_s": {
            t.session_id: round(t.first_interface_s, 4) for t in tickets
        },
        "costs": {
            t.session_id: [round(r.cost, 6) for r in t.reports] for t in tickets
        },
        "slices": sum(t.slices for t in tickets),
        "preemptions": sum(t.preemptions for t in tickets),
        "errors": {
            t.session_id: t.error for t in tickets if t.error is not None
        },
    }


def run_serial(
    scripts: Dict[str, List[Tuple[str, ...]]], config: GenerationConfig
) -> Dict[str, List[float]]:
    """The pre-scheduler reference: one engine, sessions served in turn."""
    engine = Engine(config=config)
    costs: Dict[str, List[float]] = {}
    for session_id, chunks in scripts.items():
        session = engine.session(session_id)
        per_step: List[float] = []
        for chunk in chunks:
            session.append(*chunk)
            per_step.append(round(session.interface().cost, 6))
        costs[session_id] = per_step
    return costs


def run(
    workload: str,
    sessions: int,
    chunks: int,
    chunk_size: int,
    iterations: int,
    slice_iterations: int,
    final_cap: int,
    seed: int,
) -> dict:
    """Compare fifo vs round_robin vs serial on one workload."""
    config = GenerationConfig(
        time_budget_s=0.0,  # iteration-capped: equal work, deterministic
        max_iterations=iterations,
        seed=seed,
        final_cap=final_cap,
    )
    scripts = session_scripts(workload, sessions, chunks, chunk_size)

    fifo = run_scheduler("fifo", scripts, config, slice_iterations)
    sched = run_scheduler("round_robin", scripts, config, slice_iterations)
    serial = run_serial(scripts, config)

    fifo_lat = list(fifo["first_interface_s"].values())
    sched_lat = list(sched["first_interface_s"].values())
    fifo_p95 = percentile(fifo_lat, 0.95)
    sched_p95 = percentile(sched_lat, 0.95)
    parity = (
        fifo["costs"] == sched["costs"]
        and sched["costs"] == serial
        and fifo["all_done"]
        and sched["all_done"]
    )
    return {
        "workload": workload,
        "sessions": sessions,
        "chunks": chunks,
        "chunk_size": chunk_size,
        "iterations": iterations,
        "slice_iterations": slice_iterations,
        "final_cap": final_cap,
        "seed": seed,
        "fifo": fifo,
        "scheduler": sched,
        "serial_costs": serial,
        "fifo_p50_s": round(percentile(fifo_lat, 0.5), 4),
        "fifo_p95_s": round(fifo_p95, 4),
        "scheduler_p50_s": round(percentile(sched_lat, 0.5), 4),
        "scheduler_p95_s": round(sched_p95, 4),
        "p95_speedup": round(fifo_p95 / sched_p95, 3) if sched_p95 > 0 else None,
        "parity": parity,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sessions", type=int, default=8, help="concurrent sessions per workload"
    )
    parser.add_argument(
        "--chunks", type=int, default=3, help="growing-log steps per session"
    )
    parser.add_argument(
        "--chunk-size", type=int, default=2, help="queries appended per step"
    )
    parser.add_argument(
        "--iterations", type=int, default=8, help="search iterations per interface"
    )
    parser.add_argument(
        "--slice", type=int, default=3, dest="slice_iterations",
        help="iterations per scheduler slice",
    )
    parser.add_argument(
        "--final-cap", type=int, default=300,
        help="widget-enumeration cap of the final phase",
    )
    parser.add_argument("--seed", type=int, default=0, help="search RNG seed")
    parser.add_argument(
        "--workload",
        choices=WORKLOADS,
        action="append",
        help="growing-log scenario(s); default: both",
    )
    parser.add_argument("--json", metavar="PATH", help="write machine-readable results")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero unless p95 speedup >= 2x with exact cost parity",
    )
    args = parser.parse_args(argv)
    if min(args.sessions, args.chunks, args.chunk_size, args.iterations) < 1:
        parser.error("--sessions/--chunks/--chunk-size/--iterations must be >= 1")
    workloads = args.workload or list(WORKLOADS)

    results = []
    for workload in workloads:
        results.append(
            run(
                workload,
                args.sessions,
                args.chunks,
                args.chunk_size,
                args.iterations,
                args.slice_iterations,
                args.final_cap,
                args.seed,
            )
        )

    print(
        f"\n=== BENCH-SERVE — scheduler vs FIFO, {args.sessions} sessions x "
        f"{args.chunks} growing-log steps, {args.iterations} iterations/search ==="
    )
    header = (
        f"{'workload':>10}  {'fifo p50':>9}  {'fifo p95':>9}  "
        f"{'sched p50':>9}  {'sched p95':>9}  {'speedup':>8}  {'parity':>6}"
    )
    print(header)
    print("-" * len(header))
    for result in results:
        print(
            f"{result['workload']:>10}  {result['fifo_p50_s']:>8.2f}s  "
            f"{result['fifo_p95_s']:>8.2f}s  {result['scheduler_p50_s']:>8.2f}s  "
            f"{result['scheduler_p95_s']:>8.2f}s  "
            f"{result['p95_speedup']:>7.2f}x  "
            f"{'OK' if result['parity'] else 'FAIL'}"
        )

    payload = {
        "bench": "serving",
        "api": "engine.scheduler",
        "results": results,
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")

    if args.strict:
        failed = [
            r["workload"]
            for r in results
            if not r["parity"]
            or r["p95_speedup"] is None
            or r["p95_speedup"] < 2.0
        ]
        if failed:
            print(
                f"STRICT: acceptance criteria not met for {failed} "
                f"(need parity and >= 2x p95 speedup)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
