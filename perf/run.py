#!/usr/bin/env python3
"""The repo benchmark: four workloads, end to end and layer by layer.

::

    python3 perf/run.py                         # all four, end-to-end
    python3 perf/run.py --trace                 # all four, per-layer
    python3 perf/run.py --workload serve_mix --seed 7 --seconds 10 --trace 0

Without ``--workload`` every workload runs in a subprocess of its own
(own heap, own ``ru_maxrss``) and every metric is printed by name with
its unit.  With ``--workload`` this process *is* that subprocess, and
its last line of output is one JSON object for the driver, whose
contract also fixes the four flags it passes (``--workload --seed
--seconds --trace 0|1``).  ``--seed`` is the only source of data, fault
schedules and stream schedule; the op lists are the same for every
seed.  See ``perf/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def _units(trace: bool) -> Dict[str, str]:
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in MANIFEST[section]}


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(MANIFEST["run_seconds"]),
        help="measured phase the round counts are sized for (rounds scale with it, "
        "never below 3; op lists never change)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: per-layer metrics from the traced rounds; 0: end-to-end metrics",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smoke-test scale (perf/tests); not a measurement"
    )
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> Dict[str, Any]:
    """Run ``args.workload`` in this process."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("perf/run.py: src/repro not found; run from a checkout of the repository")
    sys.path[:0] = [str(PERF), str(ROOT / "src")]
    # Imports stay outside every clock: the harness and the whole
    # program are loaded before the first set-up starts.
    from harness import MIN_ROUNDS, run_workload
    from workloads import REGISTRY

    cls = REGISTRY[args.workload]
    seed = args.seed % (1 << 32)
    if args.quick:
        setups, rounds = 2, 2
    else:
        setups = cls.setups
        rounds = max(MIN_ROUNDS, round(cls.rounds * args.seconds / MANIFEST["run_seconds"]))
    outcome = run_workload(
        lambda: cls(seed, quick=args.quick),
        setups,
        rounds,
        bool(args.trace),
        # A run takes about 1.5 × --seconds of wall time on the host the
        # sizes were taken on; on one much slower it stops adding rounds.
        give_up_after=2.5 * args.seconds,
    )
    units = _units(bool(args.trace))
    metrics = outcome["metrics"]
    outcome["metrics"] = {
        # A layer the workload never enters reports 0 for its metrics.
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    return outcome


def report(workload: str, outcome: Dict[str, Any]) -> None:
    notes = "  ".join(
        f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in outcome["notes"].items()
    )
    print(
        f"== {workload}  ops_attempted={outcome['attempted']}"
        f"  ops_failed={outcome['failed']}  {notes}"
    )
    for name, metric in outcome["metrics"].items():
        print(f"{workload:16s} {name:32s} {metric['value']:14.4f} {metric['unit']}")


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if args.workload is not None:
        outcome = run_one(args)
        report(args.workload, outcome)
        failed = outcome["failed"]
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": outcome["attempted"],
                    "failed": failed,
                    "metrics": outcome["metrics"],
                }
            )
        )
        return 0 if failed == 0 else 1
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ] + (["--quick"] if args.quick else [])
        # One workload at a time: its site-server processes are reaped
        # (the child waits for them) before the next one starts.
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
