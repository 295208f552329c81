"""The DSUD algorithm (§5.1).

The coordinator maintains the priority queue ``L`` of one
representative quaternion per site, ordered by descending *local*
skyline probability.  Each iteration pops the head, broadcasts it to
the other sites — simultaneously resolving its exact global skyline
probability (Lemma 1) and letting every site prune dominated
candidates (Local-Pruning phase) — reports it if qualified, and refills
``L`` from the head's origin site.

Corollary 1 justifies the order and the halt: the global probability of
anything still unfetched is bounded by the head's local probability, so
once every site is exhausted (each site's queue holds only candidates
above ``q``; anything below never leaves the site) no qualified tuple
can have been missed.

``limit=k`` turns the query into a *top-k probabilistic skyline*: the
same iteration stops as soon as the ``k`` globally most probable
qualified tuples are provably resolved — the head of ``L`` caps the
exact probability of everything unresolved, so emission order stays
correct while the tail of the queue is never transmitted.
"""

from __future__ import annotations

from functools import cached_property
from typing import List

from ..net.message import Quaternion
from .progressive import ProgressiveCoordinator

__all__ = ["DSUD"]


class DSUD(ProgressiveCoordinator):
    """Distributed Skyline over Uncertain Data — the paper's base algorithm.

    As an ordering policy of the progressive loop: broadcast the heads
    of ``L``, largest local skyline probability first.
    """

    algorithm = "DSUD"

    @cached_property
    def _queue(self) -> List[Quaternion]:
        """``L``, in arrival order between selections (a policy adds no constructor)."""
        return []

    def _admit(self, quaternion: Quaternion) -> None:
        self._queue.append(quaternion)

    def _select(self) -> List[Quaternion]:
        # Stable, so arrival order breaks ties — a FIFO priority queue.
        self._queue.sort(key=lambda q: -q.local_probability)
        # A head below q stays unbatched (Corollary 1 says nothing
        # below it can qualify), but heads already taken remain sound —
        # their origins hold only smaller candidates.  With
        # batch_size=1 this is exactly the per-candidate loop.
        batch: List[Quaternion] = []
        while (
            self._queue
            and len(batch) < self.batch_size
            and self._queue[0].local_probability >= self.threshold
        ):
            batch.append(self._queue.pop(0))
        if not batch and self._queue:
            self.iterations += 1  # the head that stopped the query was examined
        return batch

    def _remaining_cap(self) -> float:
        return max((q.local_probability for q in self._queue), default=0.0)

    def _holds(self, site_id: int) -> bool:
        # A recovered site is asked again even while an earlier
        # representative of it waits in L (e-DSUD is not): the
        # dsud/*/crash-recover golden cells pin the books this yields.
        return False
