"""BENCH-MAINTAIN: maintainable search state across appends + retention.

The maintainability claim (ISSUE 9 / `repro.search.carry`): carrying the
MCTS tree across a session's appends — invalidating only subtrees whose
decisions touch the append's changed choice-paths — keeps per-append
interface latency sublinear in log size, at the same seed-fixed final
cost as the warm-only reference path; and retention windows
(`session.retain(last_n=...)`) recompute only the choice-sets anchored
in dropped queries (counter-asserted against `search.carry.*`).

Three curves per growing workload, all iteration-capped and seed-fixed
so latency measures maintenance work rather than a wall-clock budget:

* **carried** — one live session, carry gate on (the default stack);
* **warm**    — the same session protocol under ``memo.carry(False)``:
  warm-started incumbents/elites but the tree rebuilt every append (the
  parity oracle);
* **cold**    — a fresh engine per measured size (full recompute).

The log grows one query at a time inside a measurement window before
each probed size (bulk appends in between keep the runtime bounded);
the reported latency is the median per-append serve time of the window.

Cost parity is asserted in a separate **parity phase**: a small growing
log served per-append under a convergence-sized iteration cap, where
both paths reach the same optimum — carrying never changes what a
converged search reports, only how fast it gets there.  (At the sweep's
deliberately tight caps the trajectories are mid-convergence and may
differ either way; the sweep records both cost columns and their delta
in the artifact rather than gating on a mid-convergence coincidence.)

Standalone CI smoke target, runnable without pytest:

    PYTHONPATH=src python benchmarks/bench_maintain.py \
        --sizes 8,32,128 --iterations 4 --json BENCH_maintain.json --strict

With ``--strict`` the exit code is non-zero unless, on every workload:
the carried curve's log-log latency slope stays < 1 (sublinear), the
convergence-capped parity phase reports identical carried and warm-only
final costs, and the retention pass re-diffed at most one rejoined
boundary pair per retracted sequence.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from typing import Dict, List

from repro import Engine, GenerationConfig, memo
from repro.search.carry import STATS
from repro.workloads import get_workload

WORKLOADS = ("sdss", "tpch")


def _serve_growing(
    log: List[str],
    sizes: List[int],
    config: GenerationConfig,
    window: int,
) -> List[dict]:
    """One session over the growing log; per-append serves near each size."""
    engine = Engine(config=config)
    session = engine.session("bench")
    points: List[dict] = []
    grown = 0
    for size in sizes:
        measured: List[float] = []
        carry = None
        report = None
        window_start = max(grown, size - window)
        if window_start > grown:
            # Bulk-append the stretch before the measurement window; one
            # serve re-establishes the carried tree for the window.
            session.append(*log[grown:window_start])
            session.interface()
            grown = window_start
        searched: List[float] = []
        while grown < size:
            session.append(log[grown])
            grown += 1
            t0 = time.perf_counter()
            report = session.interface()
            seconds = time.perf_counter() - t0
            measured.append(seconds)
            if report.source == "search":
                # Duplicate appends can be served from the interface
                # cache with zero search work; only searched serves
                # measure maintenance cost.
                searched.append(seconds)
                carry = report.to_dict()["provenance"]["carry"]
        points.append(
            {
                "log_size": size,
                "seconds": round(statistics.median(searched or measured), 4),
                "cost": report.cost,
                "iterations": report.search.stats.iterations,
                "carry": carry,
            }
        )
    return points


def _serve_cold(
    log: List[str], sizes: List[int], config: GenerationConfig
) -> List[dict]:
    """A fresh engine per probed size: the full-recompute baseline."""
    points: List[dict] = []
    for size in sizes:
        t0 = time.perf_counter()
        report = Engine(config=config).generate(log[:size])
        points.append(
            {
                "log_size": size,
                "seconds": round(time.perf_counter() - t0, 4),
                "cost": report.cost,
                "iterations": report.search.stats.iterations,
            }
        )
    return points


def _slope(points: List[dict]) -> float:
    """Least-squares slope of log(latency) vs log(log_size)."""
    xs = [math.log(p["log_size"]) for p in points]
    ys = [math.log(max(p["seconds"], 1e-6)) for p in points]
    n = len(xs)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        return 0.0
    return sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    ) / denominator


def _retention_pass(
    log: List[str], size: int, config: GenerationConfig
) -> dict:
    """Serve, apply a retention window, counter-assert bounded recompute."""
    engine = Engine(config=config)
    session = engine.session("retain")
    session.append(*log[:size])
    session.interface()
    before = STATS.snapshot()
    kept = session.retain(last_n=size // 2)
    after = STATS.snapshot()
    removed = after["retention_removals"] - before["retention_removals"]
    retracted = after["retention_retracts"] - before["retention_retracts"]
    rediffed = (
        after["retention_pairs_rediffed"] - before["retention_pairs_rediffed"]
    )
    t0 = time.perf_counter()
    report = session.interface()
    return {
        "kept": kept,
        "removed": removed,
        "sequences_retracted": retracted,
        "boundary_pairs_rediffed": rediffed,
        # Retention retires a prefix, so every retracted sequence rejoins
        # at most one boundary pair — the only changed-choice recompute
        # the window is allowed to pay.
        "bounded_recompute": removed == size - kept and rediffed <= retracted,
        "post_retention_cost": report.cost,
        "post_retention_seconds": round(time.perf_counter() - t0, 4),
        "post_retention_log_size": report.log_size,
    }


def _parity_pass(
    workload: str, n: int, iterations: int, seed: int
) -> dict:
    """Per-append serves at a convergence-sized cap: carried == warm."""

    def final_cost(carry_on: bool) -> float:
        log = get_workload(workload)(n, seed=0)
        config = GenerationConfig(
            time_budget_s=0.0, max_iterations=iterations, seed=seed
        )
        with memo.carry(carry_on):
            session = Engine(config=config).session("parity")
            cost = math.inf
            for query in log:
                session.append(query)
                cost = session.interface().cost
            return cost

    carried_cost, warm_cost = final_cost(True), final_cost(False)
    return {
        "queries": n,
        "iterations": iterations,
        "carried_cost": carried_cost,
        "warm_cost": warm_cost,
        "equal": abs(carried_cost - warm_cost) <= 1e-9,
    }


def run(
    sizes: List[int],
    iterations: int,
    seed: int,
    window: int,
    workload: str,
    parity_queries: int,
    parity_iterations: int,
) -> dict:
    log = get_workload(workload)(sizes[-1], seed=0)
    config = GenerationConfig(
        time_budget_s=0.0, max_iterations=iterations, seed=seed
    )

    carried = _serve_growing(log, sizes, config, window)
    with memo.carry(False):
        warm = _serve_growing(log, sizes, config, window)
        cold = _serve_cold(log, sizes, config)
    retention = _retention_pass(log, sizes[-1], config)
    parity = _parity_pass(workload, parity_queries, parity_iterations, seed)

    slope = _slope(carried)
    return {
        "workload": workload,
        "sizes": sizes,
        "carried": carried,
        "warm": warm,
        "cold": cold,
        # Mid-convergence sweep quality (carried - warm; <= 0 means the
        # carried tree found an interface at least as good).
        "sweep_cost_delta": round(carried[-1]["cost"] - warm[-1]["cost"], 4),
        "carried_slope": round(slope, 3),
        "sublinear": slope < 1.0,
        "parity": parity,
        "retention": retention,
        "pass": (
            slope < 1.0
            and parity["equal"]
            and retention["bounded_recompute"]
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="8,32,128",
        help="comma-separated log sizes to probe (ascending)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=4,
        help="seed-fixed MCTS iteration cap per serve",
    )
    parser.add_argument("--seed", type=int, default=0, help="search RNG seed")
    parser.add_argument(
        "--window",
        type=int,
        default=4,
        help="per-append serves measured before each probed size",
    )
    parser.add_argument(
        "--workloads",
        default=",".join(WORKLOADS),
        help="comma-separated growing workloads",
    )
    parser.add_argument(
        "--parity-queries",
        type=int,
        default=5,
        help="growing-log size of the convergence-capped parity phase",
    )
    parser.add_argument(
        "--parity-iterations",
        type=int,
        default=32,
        help="iteration cap of the parity phase (large enough to converge)",
    )
    parser.add_argument("--json", metavar="PATH", help="write machine-readable results")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero unless every workload passes the maintenance gate",
    )
    args = parser.parse_args(argv)
    sizes = sorted({int(s) for s in args.sizes.split(",") if s.strip()})
    if not sizes or sizes[0] < 2:
        parser.error("--sizes needs ascending integers >= 2")
    if args.iterations < 1 or args.window < 1:
        parser.error("--iterations and --window must be >= 1")
    if args.parity_queries < 2 or args.parity_iterations < 1:
        parser.error("--parity-queries must be >= 2, --parity-iterations >= 1")

    results: Dict[str, dict] = {}
    for workload in args.workloads.split(","):
        workload = workload.strip()
        results[workload] = run(
            sizes,
            args.iterations,
            args.seed,
            args.window,
            workload,
            args.parity_queries,
            args.parity_iterations,
        )

    print("\n=== BENCH-MAINTAIN — carried tree vs warm-only vs cold ===")
    for workload, result in results.items():
        header = (
            f"{'log':>5}  {'carried s':>9}  {'warm s':>7}  {'cold s':>7}"
            f"  {'carried cost':>12}  {'warm cost':>10}"
        )
        print(f"\n[{workload}]")
        print(header)
        print("-" * len(header))
        for c, w, f in zip(result["carried"], result["warm"], result["cold"]):
            print(
                f"{c['log_size']:>5}  {c['seconds']:>9.3f}  {w['seconds']:>7.3f}"
                f"  {f['seconds']:>7.3f}  {c['cost']:>12.2f}  {w['cost']:>10.2f}"
            )
        retention = result["retention"]
        parity = result["parity"]
        print(
            f"slope {result['carried_slope']:+.3f} "
            f"({'SUBLINEAR' if result['sublinear'] else 'SUPERLINEAR (!)'}); "
            f"sweep cost delta {result['sweep_cost_delta']:+.4f}"
        )
        print(
            f"converged parity ({parity['queries']} queries, "
            f"{parity['iterations']} iterations): carried "
            f"{parity['carried_cost']:.4f} vs warm {parity['warm_cost']:.4f} "
            f"-> {'IDENTICAL' if parity['equal'] else 'DIVERGED (!)'}"
        )
        print(
            f"retention: dropped {retention['removed']} -> kept "
            f"{retention['kept']}, {retention['sequences_retracted']} sequences "
            f"retracted, {retention['boundary_pairs_rediffed']} boundary pairs "
            f"re-diffed "
            f"({'BOUNDED' if retention['bounded_recompute'] else 'UNBOUNDED (!)'})"
        )

    payload = {
        "bench": "maintain",
        "api": "engine",
        "iterations": args.iterations,
        "seed": args.seed,
        "window": args.window,
        "parity_queries": args.parity_queries,
        "parity_iterations": args.parity_iterations,
        "workloads": results,
        "pass": all(result["pass"] for result in results.values()),
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {args.json}")

    if args.strict and not payload["pass"]:
        print("STRICT: maintenance gate not met", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
