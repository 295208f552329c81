"""Direct micro-calls into single layers, on a workload's own inputs.

The traced rounds say where an op's time went; these calls say what one
unit of a layer's work costs on the same data, taken from outside by
timing the layer's public functions.  Each figure is the best of a few
repeats, like every other time the benchmark reports.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.core.kernels import ColumnStore, prob_skyline_sfs
from repro.core.tuples import UncertainTuple
from repro.index.bbs import bbs_prob_skyline
from repro.index.prtree import PRTree

REPEATS = 3


def best_seconds(call: Callable[[], object], repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def index_layer_metrics(
    partitions: Sequence[Sequence[UncertainTuple]], threshold: float
) -> Dict[str, float]:
    """PR-tree STR build, BBS local skylines and §6.3 probes, per cluster."""
    trees: List[PRTree] = []

    def build() -> None:
        trees[:] = [PRTree.build(partition) for partition in partitions]

    build_s = best_seconds(build)
    bbs_s = best_seconds(lambda: [bbs_prob_skyline(tree, threshold) for tree in trees])
    # Probe every tree with the other partitions' tuples, as feedback does.
    probes = [t for partition in partitions for t in partition[:32]]
    probe_s = best_seconds(
        lambda: [tree.dominators_product(t) for tree in trees for t in probes]
    )
    return {
        "index.build_ms": build_s * 1e3,
        "index.bbs_ms": bbs_s * 1e3,
        "index.probe_us": probe_s / (len(trees) * len(probes)) * 1e6,
    }


def core_layer_metrics(
    window: Sequence[UncertainTuple], threshold: float
) -> Dict[str, float]:
    """Columnar kernels on one window-sized store (the unindexed path)."""
    tuples = list(window)
    store = ColumnStore.from_tuples(tuples)
    points = np.array([t.values for t in tuples[:8]], dtype=np.float64)
    return {
        "core.colstore_build_ms": best_seconds(lambda: ColumnStore.from_tuples(tuples)) * 1e3,
        "core.sfs_ms": best_seconds(lambda: prob_skyline_sfs(tuples, threshold)) * 1e3,
        "core.dominator_products_us": best_seconds(lambda: store.dominator_products(points))
        * 1e6,
    }
