"""Steadiness check: run every workload over several seeds and summarise.

Usage::

    python3 perfbench/steady.py --seeds 1-10 [--workloads sdss-grow,...] [--set NAME]

Runs the command in ``BENCHMARK.json`` once per (workload, seed) with
``--trace 0`` and the file's ``run_seconds``, cycling through the workloads
for each seed so a slow stretch of the machine spreads over all of them.
For every end-to-end metric a run prints (bounded or not) it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the interquartile distance as a share of the median, which must
stay within the metric's bound.  ``--set NAME`` stores the table under that
name in ``perfbench/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "perfbench" / "steadiness.json"
#: A metric line of run.py's output: ``name = value unit (note)``.
METRIC_LINE = re.compile(r"^([a-z0-9_]+) = (\S+) (\S+)")


def seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(bench: dict, workload: str, seed: int):
    """One run: (result line, every printed metric as name -> value)."""
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = float(match.group(2))
    return json.loads(lines[-1]), printed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--set", default="")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {} for w in names}
    incorrect = {w: 0 for w in names}
    for seed in seeds(args.seeds):
        for workload in names:
            result, printed = run(bench, workload, seed)
            incorrect[workload] += not result["correct"]
            missing = set(bounds) - set(result["metrics"])
            if missing:
                raise RuntimeError(f"{workload} seed {seed} lacks {sorted(missing)}")
            for metric, value in printed.items():
                values[workload].setdefault(metric, []).append(value)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m}={result['metrics'][m]['value']:.4g}" for m in bounds), flush=True)

    table = {}
    worst = 0.0
    for workload in names:
        table[workload] = {"incorrect_runs": incorrect[workload]}
        for metric, samples in values[workload].items():
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median if median else 0.0
            row = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                   "runs": len(samples), "bound": bounds.get(metric)}
            table[workload][metric] = row
            if metric in bounds and metric != "setup_s":
                worst = max(worst, spread / bounds[metric])
            print(f"{workload:14s} {metric:13s} median {median:<10.5g} q1 {q1:<10.5g} "
                  f"q3 {q3:<10.5g} spread {spread:.3f} bound {bounds.get(metric, '-')}")
        print(f"{workload}: {incorrect[workload]} incorrect runs")
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    if args.set:
        stored = json.loads(TABLE.read_text()) if TABLE.exists() else {}
        stored[args.set] = {"seeds": args.seeds, "run_seconds": bench["run_seconds"],
                            "workloads": table}
        TABLE.write_text(json.dumps(stored, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
