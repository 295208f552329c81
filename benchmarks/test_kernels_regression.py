"""Kernel regression benchmarks: vectorized vs scalar hot paths.

Times the columnar SFS, the Eq. 9 probe kernel and batched probe rounds
at the benchmark scale, and asserts the regression floor — the
vectorized path must stay meaningfully faster than the scalar
reference.  Runs under
``pytest benchmarks/ --benchmark-only`` (CI's non-blocking
``benchmarks`` job) so a kernel regression fails loudly next to the
paper-figure benchmarks.
"""

import random
import time

import pytest

from repro.core.kernels import ColumnStore
from repro.core.kernels import prob_skyline_sfs as columnar_sfs
from repro.core.probability import non_occurrence_product
from repro.core.prob_skyline import prob_skyline_sfs as scalar_sfs
from repro.core.tuples import UncertainTuple

from .conftest import Q, run_algorithm

N = 4_000
D = 4
PROBES = 64


def make_database(n=N, d=D, seed=101, start_key=0):
    rng = random.Random(seed)
    return [
        UncertainTuple(
            start_key + i,
            tuple(rng.random() for _ in range(d)),
            rng.random() * 0.99 + 0.01,
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def database():
    return make_database()


@pytest.fixture(scope="module")
def probes():
    return make_database(n=PROBES, seed=303, start_key=10**6)


class TestSFSKernel:
    def test_vectorized_sfs(self, benchmark, database):
        answer = benchmark(columnar_sfs, database, Q)
        benchmark.extra_info["members"] = len(answer)

    def test_scalar_sfs(self, benchmark, database):
        answer = benchmark(scalar_sfs, database, Q)
        benchmark.extra_info["members"] = len(answer)

    def test_vectorized_beats_scalar(self, benchmark, database):
        """The regression floor: columnar SFS ≥ 2× the scalar at n=4k."""

        def compare():
            t0 = time.perf_counter()
            vec = columnar_sfs(database, Q)
            t1 = time.perf_counter()
            ref = scalar_sfs(database, Q)
            t2 = time.perf_counter()
            assert vec.agrees_with(ref, tol=1e-9)
            return t1 - t0, t2 - t1

        vec_s, ref_s = benchmark.pedantic(compare, rounds=3, iterations=1)
        benchmark.extra_info["speedup"] = ref_s / vec_s
        assert ref_s / vec_s >= 2.0


class TestProbeKernel:
    def test_vectorized_probe(self, benchmark, database, probes):
        store = ColumnStore.from_tuples(database)

        def run():
            for t in probes:
                store.dominator_product(store.project_point(t), exclude_key=t.key)

        benchmark(run)

    def test_scalar_probe(self, benchmark, database, probes):
        def run():
            for t in probes:
                non_occurrence_product(t, database)

        benchmark(run)


class TestBatchedRounds:
    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_edsud_batched(self, benchmark, independent_workload, batch_size):
        result = benchmark.pedantic(
            run_algorithm,
            args=(independent_workload, "edsud"),
            kwargs={"batch_size": batch_size},
            rounds=3,
            iterations=1,
        )
        benchmark.extra_info["rounds"] = result.stats.rounds
        benchmark.extra_info["tuples_transmitted"] = result.bandwidth
