"""Benchmark — STR bulk loading vs one-at-a-time insertion.

Measures build time and — the number that matters downstream — probe
node accesses over the resulting trees.  Expected shape: the STR
packer beats one-at-a-time insertion on both axes.
"""

import pytest

from repro.data.workload import make_synthetic_workload
from repro.index.bulk import str_bulk_load
from repro.index.prtree import PRTree
from repro.index.rtree import IndexedItem

N = 5_000
PROBES = 120


@pytest.fixture(scope="module")
def items():
    db = make_synthetic_workload("independent", n=N, d=2, sites=1, seed=23).global_database
    return [IndexedItem(t.key, t.values, t.probability, payload=t) for t in db]


@pytest.fixture(scope="module")
def probe_targets(items):
    return [it.payload for it in items[:: max(1, N // PROBES)]]


def build(strategy, items):
    tree = PRTree(max_entries=16)
    if strategy == "str":
        return str_bulk_load(tree, list(items))
    for it in items:
        tree.insert(it)
    return tree


@pytest.mark.parametrize("strategy", ["str", "insert"])
def test_build_time(benchmark, items, strategy):
    tree = benchmark(build, strategy, items)
    assert len(tree) == N
    tree.check_invariants()


@pytest.mark.parametrize("strategy", ["str", "insert"])
def test_probe_quality(benchmark, items, probe_targets, strategy):
    tree = build(strategy, items)

    def probe_all():
        tree.node_accesses = 0
        for t in probe_targets:
            tree.dominators_product(t)
        return tree.node_accesses

    accesses = benchmark.pedantic(probe_all, rounds=3, iterations=1)
    benchmark.extra_info["node_accesses"] = accesses


def test_str_beats_insertion(benchmark, items, probe_targets):
    def compare():
        out = {}
        for strategy in ("str", "insert"):
            tree = build(strategy, items)
            tree.node_accesses = 0
            for t in probe_targets:
                tree.dominators_product(t)
            out[strategy] = tree.node_accesses
        return out

    accesses = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info.update(accesses)
    assert accesses["str"] <= accesses["insert"]
