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

import heapq
import itertools
from typing import Any, Generator, List, Optional

from .coordinator import Coordinator, _Request

__all__ = ["DSUD"]


class DSUD(Coordinator):
    """Distributed Skyline over Uncertain Data — the paper's base algorithm."""

    algorithm = "DSUD"

    def _steps(self) -> Generator[Optional[_Request], Any, None]:
        yield from self._prepare_sites_script()
        counter = itertools.count()
        heap: List = []
        for quaternion in (yield from self._initial_fill_script()):
            heapq.heappush(
                heap, (-quaternion.local_probability, next(counter), quaternion)
            )
        exhausted = set()
        site_by_id = {site.site_id: site for site in self.sites}

        def reintegrate() -> Generator[Optional[_Request], Any, None]:
            # Reintegrate any crashed site that has come back: its
            # missed factors were already re-probed inside
            # poll_recoveries; here we resume draining its queue.
            for site in (yield from self._poll_recoveries_script()):
                exhausted.discard(site.site_id)
                refill = yield from self._fetch_representative_script(site)
                if refill is None:
                    exhausted.add(site.site_id)
                else:
                    heapq.heappush(
                        heap, (-refill.local_probability, next(counter), refill)
                    )
                    self.stats.record_round(tuples_in_round=1)

        while True:
            yield from reintegrate()
            if not heap:
                # L drained while a site was unreachable — one final
                # poll above was its last chance; terminate degraded.
                break
            # Collect up to batch_size heads by *peeking* before each
            # pop: a head below q must stay unbatched (Corollary 1 says
            # nothing below it can qualify), but heads already popped
            # into the batch remain sound — their origins hold only
            # smaller candidates.  With batch_size=1 this is exactly
            # the per-candidate loop: same pops, same iteration count.
            batch: List = []
            while heap and len(batch) < self.batch_size:
                if heap[0][2].local_probability < self.threshold:
                    break
                self.iterations += 1
                _, _, head = heapq.heappop(heap)
                batch.append(head)
            if not batch:
                # Corollary 1: nothing in L (or unfetched) can qualify.
                self.iterations += 1
                heapq.heappop(heap)
                break
            # The refills below are unconditional, so their pops ride
            # the broadcast's fan-out instead of trailing it.
            global_probabilities = yield from self._broadcast_batch_script(
                batch,
                refill=[
                    site_by_id[head.site]
                    for head in batch
                    if head.site not in exhausted
                ],
            )
            for head, global_probability in zip(batch, global_probabilities):
                # The coverage-aware funnel: reports directly without a
                # limit, otherwise buffers with the live TupleCoverage.
                self.emit(head.tuple, global_probability)
            for head in batch:
                if head.site not in exhausted:
                    refill = yield from self._fetch_representative_script(
                        site_by_id[head.site]
                    )
                    if refill is None:
                        exhausted.add(head.site)
                    else:
                        heapq.heappush(
                            heap, (-refill.local_probability, next(counter), refill)
                        )
                        self.stats.record_round(tuples_in_round=1)
            if self.limit is not None:
                remaining_cap = -heap[0][0] if heap else 0.0
                if self.drain_topk(remaining_cap):
                    return
            # One iteration done — a scheduling point for the serving
            # layer to interleave other sessions.
            yield
        self.finish_topk()
