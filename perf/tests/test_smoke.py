"""Smoke tests of the benchmark itself, at ``--quick`` scale.

Run with ``python -m pytest perf/tests``.  They check the contract the
numbers rest on — seed discipline, exact counts, every declared metric
printed under a well-formed name — not the numbers.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
MANIFEST = json.loads((PERF.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int = 0, repeat: int = 0) -> dict:
    """One ``--quick`` run; ``repeat`` only tells same-argument runs apart."""
    done = subprocess.run(
        [
            sys.executable,
            str(PERF / "run.py"),
            "--quick",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--trace",
            str(trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def exact_counts(result: dict) -> tuple:
    metrics = result["metrics"]
    return (
        metrics["tuples_per_op"]["value"],
        metrics["messages_per_op"]["value"],
        result["attempted"],
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_exactly(workload: str) -> None:
    assert exact_counts(run(workload, 12)) == exact_counts(run(workload, 12, repeat=1))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_changes_the_inputs(workload: str) -> None:
    first, second = run(workload, 12), run(workload, 13)
    assert first["attempted"] == second["attempted"]  # op counts are fixed
    assert exact_counts(first)[:2] != exact_counts(second)[:2]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_printed(workload: str, trace: int) -> None:
    result = run(workload, 12, trace)
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(workload: str) -> None:
    for name, metric in run(workload, 12)["metrics"].items():
        assert metric["value"] > 0, name


def test_names_are_well_formed_and_unique() -> None:
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_layers_a_workload_keeps_busy_report_something() -> None:
    busy = {
        "solo_anticorr": ("index.bbs_ms", "site.prepare_ms", "coordinator.self_ms"),
        "serve_mix": ("serve.submit_us", "site.fork_us", "serve.passes_per_op"),
        "remote_wan": ("net.dial_ms", "net.rpcs_per_op", "net.rpc_wait_ms", "net.wan_floor_ms"),
        "stream_sliding": ("stream.publish_ms", "stream.ingest_us", "core.sfs_ms"),
    }
    for workload, names in busy.items():
        metrics = run(workload, 12, 1)["metrics"]
        for name in names:
            assert metrics[name]["value"] > 0, (workload, name)
    # …and the layers a workload never enters stay at zero.
    assert run("solo_anticorr", 12, 1)["metrics"]["net.rpcs_per_op"]["value"] == 0
