"""Worker-process table builds are bit-identical to inline builds.

The pool ships explicit array copies to a process, builds the table
there, and ships back only the payload; adopting it must produce the
same bits as building inline — sync and async — and the pool must shut
down cleanly under the context manager.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.core.kernels import ColumnStore
from repro.core.partition_index import PartitionIndex
from repro.distributed.site import LocalSite, SiteConfig
from repro.distributed.workers import TableWorkerPool, build_table_payload

from ..conftest import make_random_database

DB = make_random_database(400, 3, seed=51, grid=8)
STORE = ColumnStore.from_tuples(DB)


def _inline() -> PartitionIndex:
    index = PartitionIndex.build(STORE)
    index.refresh()
    return index


class TestPoolBuilds:
    def test_pool_build_is_bit_identical_to_inline(self):
        inline = _inline()
        with TableWorkerPool(max_workers=1) as pool:
            payload = pool.build_payload(STORE)
        adopted = PartitionIndex.from_payload(STORE, payload)
        np.testing.assert_array_equal(adopted.products, inline.products)
        assert adopted.stale_cells() == 0
        adopted.check_invariants()

    def test_async_build_matches_sync(self):
        inline = _inline()

        async def drive():
            with TableWorkerPool(max_workers=1) as pool:
                return await pool.build_payload_async(STORE)

        payload = asyncio.run(drive())
        adopted = PartitionIndex.from_payload(STORE, payload)
        np.testing.assert_array_equal(adopted.products, inline.products)

    def test_worker_function_is_importable_and_pure(self):
        """The process target rebuilds only from the explicit arrays."""
        payload = build_table_payload(
            np.ascontiguousarray(STORE.values, dtype=np.float64),
            np.ascontiguousarray(STORE.probabilities, dtype=np.float64),
            np.ascontiguousarray(STORE.keys),
            None,
            None,
        )
        np.testing.assert_array_equal(
            np.asarray(payload["products"]), _inline().products
        )

    def test_site_build_through_pool_matches_inline_site(self):
        config = SiteConfig(kernel="table")
        inline_site = LocalSite(0, DB, config=config)
        inline_site.build_all_probs_table()
        pooled_site = LocalSite(0, DB, config=config)
        with TableWorkerPool(max_workers=1) as pool:
            pooled_site.build_all_probs_table(pool)
        np.testing.assert_array_equal(
            pooled_site.kernel.table().products,
            inline_site.kernel.table().products,
        )
        assert pooled_site.prepare(0.3) == inline_site.prepare(0.3)

    def test_pool_rejects_use_after_close(self):
        pool = TableWorkerPool(max_workers=1)
        pool.close()
        try:
            pool.build_payload(STORE)
        except RuntimeError:
            return
        raise AssertionError("closed pool accepted work")
