#!/usr/bin/env python3
"""A/A check: does the benchmark repeat within its own bounds?

Runs every workload as two sets of runs on unchanged code.  Inside a
set every run takes another ``--seed``; the second set replays the
seeds of the first, so the sets compare like with like.  Per workload ×
end-to-end metric it prints the set medians, how much worse the second
median is than the first, each set's spread (inter-quartile distance
over the median, from ``statistics.quantiles(values, n=4)``), and the
host's own noise: the median and the largest relative difference between
the two runs of one seed — same inputs, same code.

One rule for every metric: the drift and both spreads must stay within
the metric's bound in ``BENCHMARK.json``.  On top of that the counts
(``tuples_per_op``, ``messages_per_op``) must be *identical* in the two
runs of a seed, and no op may fail.  Exits non-zero otherwise.

::

    python3 perf/aa.py                      # 2 × 10 runs per workload
    python3 perf/aa.py --runs 5 --out perf/AA_BASELINE.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

PERF = Path(__file__).resolve().parent
MANIFEST = json.loads((PERF.parent / "BENCHMARK.json").read_text())
EXACT = ("tuples_per_op", "messages_per_op")  # repeat exactly per seed


def host_fingerprint() -> Dict[str, object]:
    import numpy

    model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_once(workload: str, seed: int) -> Dict[str, object]:
    done = subprocess.run(
        [
            sys.executable,
            str(PERF / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(MANIFEST["run_seconds"]),
            "--trace",
            "0",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (at least 5)")
    parser.add_argument("--seed", type=int, default=1, help="first seed; every run of a set takes the next")
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in MANIFEST["workloads"]])
    parser.add_argument("--out", help="write the table, raw values and host fingerprint here")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    workloads = args.workload or [w["name"] for w in MANIFEST["workloads"]]
    seeds = range(args.seed, args.seed + args.runs)
    rows, verdict, failed_ops = [], 0, 0
    for workload in workloads:
        sets = [[run_once(workload, seed) for seed in seeds] for _ in range(2)]
        failed_ops += sum(int(run["failed"]) for runs in sets for run in runs)
        for metric in MANIFEST["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (
                [float(run["metrics"][name]["value"]) for run in runs] for runs in sets
            )
            medians = [statistics.median(first), statistics.median(second)]
            drift = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                drift = -drift
            spreads = [spread(first), spread(second)]
            paired = sorted(abs(b - a) / a for a, b in zip(first, second))
            within = drift <= bound and max(spreads) <= bound
            if name in EXACT:
                within = within and first == second
            verdict |= 0 if within else 1
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "bound": bound,
                    "medians": medians,
                    "worse_by": drift,
                    "spreads": spreads,
                    "same_seed_noise": [statistics.median(paired), paired[-1]],
                    "range": [min(first + second), max(first + second)],
                    "within_bound": within,
                    "values": [first, second],
                }
            )
            print(
                f"{workload:15s} {name:20s} med {medians[0]:11.4f} {medians[1]:11.4f} {metric['unit']:6s}"
                f" worse_by {drift:+7.2%}  spread {spreads[0]:6.2%} {spreads[1]:6.2%}"
                f"  same-seed {statistics.median(paired):6.2%} max {paired[-1]:6.2%}"
                f"  bound {bound:.2f}  {'ok' if within else 'OUT OF BOUND'}",
                flush=True,
            )
    if args.out:
        doc = {
            "generated_by": "python3 perf/aa.py",
            "runs_per_set": args.runs,
            "seeds": list(seeds),
            "host": host_fingerprint(),
            "ops_failed": failed_ops,
            "rows": rows,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    if failed_ops:
        print(f"FAILED: {failed_ops} ops failed")
    return 1 if (verdict or failed_ops) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
