"""Micro-benchmarks of the substrates the table/figure numbers rest on:
centralized skyline algorithms, local probabilistic skyline, PR-tree
construction, and the §6.3 probe against the index-free linear scan —
useful when profiling a regression in any figure bench."""

import pytest

from repro.core.prob_skyline import prob_skyline_sfs
from repro.core.probability import non_occurrence_product
from repro.core.skyline import block_nested_loop, divide_and_conquer, sort_filter_skyline
from repro.data.workload import make_synthetic_workload
from repro.index.bbs import bbs_prob_skyline
from repro.index.bulk import str_bulk_load
from repro.index.prtree import PRTree
from repro.index.rtree import IndexedItem, RTree

N = 5_000


@pytest.fixture(scope="module")
def database():
    wl = make_synthetic_workload("independent", n=N, d=3, sites=1, seed=3)
    return wl.global_database


@pytest.fixture(scope="module")
def tree(database):
    return PRTree.build(database)


@pytest.mark.parametrize(
    "algorithm", [block_nested_loop, sort_filter_skyline, divide_and_conquer],
    ids=["bnl", "sfs", "dnc"],
)
def test_conventional_skyline(benchmark, database, algorithm):
    result = benchmark(algorithm, database)
    assert len(result) > 0


def test_probabilistic_skyline_sfs(benchmark, database):
    result = benchmark(prob_skyline_sfs, database, 0.3)
    assert len(result) > 0


def test_probabilistic_skyline_bbs(benchmark, database, tree):
    result = benchmark(bbs_prob_skyline, tree, 0.3)
    assert result.agrees_with(prob_skyline_sfs(database, 0.3))


def test_prtree_bulk_load(benchmark, database):
    items = [
        IndexedItem(t.key, t.values, t.probability, payload=t) for t in database
    ]

    def build():
        return str_bulk_load(PRTree(), list(items))

    tree = benchmark(build)
    assert len(tree) == N


def test_prtree_incremental_build(benchmark, database):
    sample = database[:1_000]

    def build():
        tree = PRTree()
        for t in sample:
            tree.add(t)
        return tree

    tree = benchmark(build)
    assert len(tree) == 1_000


def test_probe_throughput(benchmark, database, tree):
    targets = database[::50]

    def probe_all():
        total = 0.0
        for t in targets:
            total += tree.dominators_product(t)
        return total

    total = benchmark(probe_all)
    assert total >= 0.0


def test_probe_linear_scan(benchmark, database):
    targets = database[::50]

    def scan_all():
        total = 0.0
        for t in targets:
            total += non_occurrence_product(t, database)
        return total

    total = benchmark(scan_all)
    assert total >= 0.0


def test_probe_agrees_with_linear_scan(benchmark, database, tree):
    def compare():
        for t in database[::125]:
            exact = non_occurrence_product(t, database)
            assert tree.dominators_product(t) == pytest.approx(exact, abs=1e-12)
        return True

    assert benchmark.pedantic(compare, rounds=1, iterations=1)
