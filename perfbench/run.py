"""End-to-end serving benchmark: append -> interface latency, cost, layers.

Usage::

    python3 perfbench/run.py --workload sdss-grow --seed 1 --seconds 45 --trace 0

Workloads (``perfbench/NOTES.md`` says why each was chosen):

* ``sdss-grow`` — sessions on the SDSS Listing-1-shaped stream: an untimed
  fill loads 8 queries, then each write appends two and serves.
* ``tpch-window`` — sessions on the TPC-H pricing-summary stream: after an
  untimed fill of a W-query window, each write appends one query, retains
  the last W and serves; reads re-serve the unchanged log.
* ``cold-generate`` — one-shot ``Engine.generate`` with a fresh Engine per
  log: Listing 1, the pricing summary and seed-drawn sdss/tpch logs.

Every unit (one session or one cold log) runs in a fresh interpreter and
every delivery is checked (``check.py``).  ``--seconds`` sets how much
work a run does: the number of units is sized so the timed requests take
about that long on a 2-core x86 box.  ``--workload all`` runs the three in
turn.  With ``--trace 1`` the first half of the units each run twice,
untraced and traced, and the run prints the per-layer metrics and the
tracing overhead instead of the end-to-end metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

from inputs import sub_seed  # noqa: E402

#: Fresh-interpreter launches whose median is ``setup_s`` (after one
#: untimed launch that primes the bytecode cache).
SETUP_LAUNCHES = 5
#: Reads after each timed write.
READS = {"sdss-grow": 4, "tpch-window": 4, "cold-generate": 6}
#: sdss-grow: queries loaded by the untimed fill, and the final log size
#: (two queries per timed write in between).
SDSS_FILL = 8
SDSS_QUERIES = 14
#: tpch-window: window size and timed writes per session.
TPCH_WINDOW = 8
TPCH_WRITES = 4
#: cold-generate: the logs in run order (the paper's two fixed logs, with
#: an sdss or a tpch log drawn from the seed after each pair), and the
#: size of the drawn ones.
COLD_LOGS = ("listing1", "pricing-summary", "sdss", "listing1", "pricing-summary", "tpch")
COLD_QUERIES = 10
#: Session units: every session fills from a reference stream (the
#: generator seeded with the unit's index, the same in every run); two of
#: every three continue that stream and the third continues with queries
#: drawn from ``--seed``.  One session's work swings by a fifth to a third
#: with its stream (the search's basin), so runs made only of drawn sessions
#: spread 20-30% from seed to seed at this length; the reference streams
#: hold the spread near the machine's own noise, and the drawn writes keep
#: every run on inputs no change was tuned on.
SEEDED_EVERY = 3
#: Timed seconds one unit takes on a 2-core x86 box (sizes the run).
UNIT_SECONDS = {"sdss-grow": 7.0, "tpch-window": 7.5, "cold-generate": 5.0}
#: Wall-clock limit for all units of one run together.
RUN_LIMIT_S = 170.0


def plan(workload: str, seed: int, seconds: float) -> List[dict]:
    """The run's units, fixed by workload, seed and seconds."""
    floor = 3 if workload == "cold-generate" else 1
    count = max(floor, round(seconds / UNIT_SECONDS[workload]))
    reads = READS[workload]
    units = []
    for j in range(count):
        spec = {"workload": workload, "seed": sub_seed(seed, j), "reads": reads}
        if workload == "cold-generate":
            spec.update(log=COLD_LOGS[j % len(COLD_LOGS)], queries=COLD_QUERIES)
        else:
            spec["fill_seed"] = j
            if j % SEEDED_EVERY != SEEDED_EVERY - 1:
                spec["seed"] = j
            if workload == "sdss-grow":
                spec.update(fill=SDSS_FILL, queries=SDSS_QUERIES)
            else:
                spec.update(window=TPCH_WINDOW, writes=TPCH_WRITES)
        units.append(spec)
    return units


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(env: Dict[str, str]) -> float:
    """Median time from a fresh interpreter to Engine and session ready."""
    samples = []
    for launch in range(SETUP_LAUNCHES + 1):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "setup"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=str(ROOT),
            text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup launch failed:\n{err}")
        if launch:  # the first launch only primes the bytecode cache
            samples.append(elapsed)
    return statistics.median(samples)


def run_unit(spec: dict, env: Dict[str, str], deadline: float) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(spec)],
        capture_output=True,
        env=env,
        cwd=str(ROOT),
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"unit {spec} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def tail(samples: List[float]) -> Tuple[float, float]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with fewer than eleven samples no
    percentile qualifies and the minimum stands in.
    """
    ordered = sorted(samples)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


#: End-to-end metrics in ``BENCHMARK.json`` (bounded), with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("serve_p50_s", "s"),
    ("serves_per_s", "1/s"),
    ("read_p50_rel", "ratio"),
    ("read_tail_rel", "ratio"),
    ("mean_cost", "cost"),
    ("peak_rss_mb", "MB"),
)


def end_to_end(results: List[dict], setup_s: float) -> Dict[str, tuple]:
    """Every end-to-end metric as ``name -> (value, unit, note)``.

    Only the names in :data:`END_TO_END` go into the result line; the
    others are printed.  ``serve_tail_s`` needs eleven writes for its
    percentile to exist and more than twenty to lie above the median,
    ``final_cost`` rests on one write per unit, and raw read latencies
    move with the machine's speed, so none is steady enough across seeds
    at this run length to carry a bound.  ``read_p50_rel`` and
    ``read_tail_rel`` divide reads by the machine-speed probe instead.
    """
    writes = [s for r in results for s in r["write_s"]]
    reads = [s for r in results for s in r["read_s"]]
    costs = [c for r in results for c in r["costs"]]
    finals = [r["costs"][-1] for r in results]
    serve_tail, serve_pct = tail(writes)
    read_tail, read_pct = tail(reads)
    probe = statistics.median(p for r in results for p in r["probe_s"])
    return {
        "setup_s": (setup_s, "s", f"median of {SETUP_LAUNCHES} launches"),
        "serve_p50_s": (statistics.median(writes), "s", f"{len(writes)} writes"),
        "serve_tail_s": (serve_tail, "s", f"p{serve_pct:.0f} of {len(writes)} writes"),
        "serves_per_s": (len(writes) / sum(writes), "1/s", f"{len(writes)} writes"),
        "read_p50_s": (statistics.median(reads), "s", f"{len(reads)} reads"),
        "read_tail_s": (read_tail, "s", f"p{read_pct:.0f} of {len(reads)} reads"),
        "read_p50_rel": (
            statistics.median(reads) / probe, "ratio", "read_p50_s over the probe's median"
        ),
        "read_tail_rel": (read_tail / probe, "ratio", "read_tail_s over the probe's median"),
        "mean_cost": (statistics.fmean(costs), "cost", f"{len(costs)} writes"),
        "final_cost": (statistics.fmean(finals), "cost", f"last write of {len(finals)} units"),
        "peak_rss_mb": (
            statistics.median(r["peak_rss_mb"] for r in results),
            "MB",
            f"median over {len(results)} unit processes",
        ),
    }


def _sum_counters(results: List[dict], key: str) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for r in results:
        for name, value in r[key].items():
            total[name] = total.get(name, 0) + value
    return total


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, tuple]:
    """Per-layer metrics of the traced units plus the tracing overhead."""
    from layers import PER_LAYER, layer_metrics

    metrics = layer_metrics([r["trace"] for r in traced], _sum_counters(traced, "stats"))
    base = sum(sum(r["write_s"]) + sum(r["read_s"]) for r in untraced)
    with_trace = sum(sum(r["write_s"]) + sum(r["read_s"]) for r in traced)
    metrics["trace.untraced_s"] = base
    metrics["trace.traced_s"] = with_trace
    metrics["trace.overhead_ratio"] = (with_trace - base) / base
    metrics["trace.spans"] = sum(r["trace"]["spans"] for r in traced)
    return {name: (metrics[name], unit, "") for name, unit, _ in PER_LAYER}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env) -> dict:
    """One run: setup launches, then every unit; returns the result line."""
    setup_s = setup_seconds(env)
    deadline = time.monotonic() + RUN_LIMIT_S
    units = plan(workload, seed, seconds)
    if trace:
        # Each traced unit also runs untraced (the overhead baseline), so
        # half the units keep a traced run as long as an untraced one.
        units = units[: (len(units) + 1) // 2]
    OUT.mkdir(exist_ok=True)
    untraced: List[dict] = []
    traced: List[dict] = []
    crashed = 0
    for j, spec in enumerate(units):
        passes = [False, True] if trace else [False]
        if j % 2:  # alternate which pass of a traced pair runs first
            passes.reverse()
        for with_trace in passes:
            run_spec = dict(spec)
            if with_trace:
                run_spec["trace"] = True
                run_spec["spans"] = str(OUT / f"spans-{workload}-seed{seed}-unit{j}.npz")
            try:
                result = run_unit(run_spec, env, deadline)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"unit {j} failed: {exc}", file=sys.stderr)
                crashed += 1
                continue
            (traced if with_trace else untraced).append(result)

    results = untraced + traced
    attempted = sum(r["attempted"] for r in results) + crashed
    failed = sum(r["failed"] for r in results) + crashed
    selftest = bool(results) and all(r["selftest"] for r in results)
    for r in results:
        for problem in r["problems"]:
            print(f"delivery check failed: {problem}")
    if results and not selftest:
        print("delivery check self-test failed: a tampered report passed")

    print(f"workload {workload} seed {seed}: {len(units)} units")
    draws = sum(r["inputs"]["draws"] for r in untraced)
    dropped = sum(r["inputs"]["dropped"] for r in untraced)
    if draws:
        print(f"inputs: dropped {dropped} repeats of {draws} draws ({dropped / draws:.1%})")
    print(f"fail_frac = {failed / max(attempted, 1):.4g} ratio ({failed} of {attempted})")
    rows = end_to_end(untraced, setup_s) if untraced and not crashed else {}
    for name, (value, unit, note) in rows.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    metrics = {name: rows[name] for name, _ in END_TO_END if name in rows}
    if trace:
        metrics = per_layer(untraced, traced) if traced and untraced and not crashed else {}
        for name, (value, unit, _) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        summary = {
            "workload": workload,
            "seed": seed,
            "end_to_end": {name: row[0] for name, row in rows.items()},
            "per_layer": {name: row[0] for name, row in metrics.items()},
            "report_counters": {
                key: _sum_counters(traced, key)
                for key in ("stats", "carry", "cache", "sources")
            },
        }
        path = OUT / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"trace summary: {path.relative_to(ROOT)}")

    return {
        "correct": failed == 0 and selftest and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(READS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = _env()
    workloads = sorted(READS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), env)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"cannot start the program: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
