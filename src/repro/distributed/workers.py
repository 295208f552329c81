"""Per-site worker processes for all-probabilities table builds.

A standing site on ``SiteConfig(kernel="table")`` still has to *build*
the table once per partition — seconds of pure numpy at n=10⁵..10⁶.
Doing that on the serving thread stalls the asyncio loop (every other
session's RPCs wait); doing it on a thread shares the single GIL-free
numpy window with the serving kernels.  This module runs the build in a
separate **process** and ships only the result arrays back.

Process discipline (enforced by skylint SKY501/SKY601):

* Nothing mutable crosses the boundary.  The parent serialises the
  partition to plain contiguous arrays (:func:`TableWorkerPool.build_payload`),
  the child rebuilds a private :class:`~repro.core.kernels.ColumnStore`
  + :class:`~repro.core.partition_index.PartitionIndex` from them, and
  returns :meth:`~repro.core.partition_index.PartitionIndex.to_payload`
  — plain arrays again.  The worker function is a module-level pure
  function; it never touches shared state, so fork/spawn start methods
  behave identically.
* Async callers await :meth:`TableWorkerPool.build_payload_async`,
  which wraps the executor future with :func:`asyncio.wrap_future` —
  the event loop never blocks on a pool join.  Blocking calls
  (:meth:`TableWorkerPool.close`, the context-manager exit) are
  synchronous-only by construction.

Determinism: the child rebuilds the grid from the same ``(store,
occupancy, cells_per_dim)`` inputs the parent would use, and
:meth:`PartitionIndex.from_payload` verifies the returned grid
parameters match before adopting the products — a worker build is
bit-identical to an inline build.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Optional

import numpy as np

from ..core.kernels import ColumnStore
from ..core.partition_index import PartitionIndex

__all__ = ["TableWorkerPool", "build_table_payload"]


def build_table_payload(
    values: np.ndarray,
    probabilities: np.ndarray,
    keys: np.ndarray,
    occupancy: Optional[int],
    cells_per_dim: Optional[int],
) -> Dict[str, object]:
    """Build one partition's P_sky table; runs inside a worker process.

    Pure function of its (pickled) arguments: constructs a private
    store + index and returns the product table as plain arrays.  No
    state outlives the call.
    """
    store = ColumnStore.from_arrays(values, probabilities, keys=keys)
    index = PartitionIndex.build(
        store, occupancy=occupancy, cells_per_dim=cells_per_dim
    )
    return index.to_payload()


class TableWorkerPool:
    """A process pool dedicated to table builds.

    One pool serves any number of sites; builds queue up behind
    ``max_workers`` processes.  Use as a context manager, or call
    :meth:`close` from synchronous code when done — never from a
    coroutine (it joins the pool).
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._executor = ProcessPoolExecutor(max_workers=max_workers)

    @staticmethod
    def _serialize(store: ColumnStore) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Explicitly copy the partition into plain picklable arrays.

        Memory-mapped or shared columns must not leak across the
        process boundary as live references; the copy is the
        serialization point.
        """
        return (
            np.ascontiguousarray(store.values),
            np.ascontiguousarray(store.probabilities),
            np.ascontiguousarray(store.keys),
        )

    def build_payload(
        self,
        store: ColumnStore,
        occupancy: Optional[int] = None,
        cells_per_dim: Optional[int] = None,
    ) -> Dict[str, object]:
        """Build a table in a worker and block for the result arrays."""
        values, probabilities, keys = self._serialize(store)
        future = self._executor.submit(
            build_table_payload, values, probabilities, keys, occupancy, cells_per_dim
        )
        return future.result()

    async def build_payload_async(
        self,
        store: ColumnStore,
        occupancy: Optional[int] = None,
        cells_per_dim: Optional[int] = None,
    ) -> Dict[str, object]:
        """Build a table in a worker without blocking the event loop."""
        values, probabilities, keys = self._serialize(store)
        future = self._executor.submit(
            build_table_payload, values, probabilities, keys, occupancy, cells_per_dim
        )
        result: Dict[str, object] = await asyncio.wrap_future(future)
        return result

    def close(self) -> None:
        """Join the pool (synchronous callers only)."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "TableWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
