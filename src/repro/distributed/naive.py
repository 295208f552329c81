"""The §5.1 strawman: ship all local skylines, broadcast all of them.

The "important improvement" over ship-all that motivates DSUD: every
site computes its qualified local skyline ``SKY(D_i)`` and transmits
the whole set; the server then broadcasts every received candidate to
the other sites to resolve its exact global probability.  Bandwidth is

    Σ |SKY(D_i)|  +  Σ |SKY(D_i)| × (m − 1)

— the §4 cost analysis's ``N_local + N_back`` — because without
iteration there is no feedback pruning: nothing ever stops a site from
shipping candidates that the first broadcast would have disqualified.
Candidates are broadcast in descending local-probability order, so
this algorithm is progressive too, just wasteful.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..net.message import MessageKind, Quaternion
from .coordinator import _SERVER, Coordinator
from .engine import _Request, _Rpc

__all__ = ["NaiveLocalSkylines"]


class NaiveLocalSkylines(Coordinator):
    """Ship every local skyline, broadcast every candidate."""

    algorithm = "naive-local-skylines"

    def _steps(self) -> Generator[Optional[_Request], Any, None]:
        yield from self._prepare_sites_script()
        gathered: List[Quaternion] = []
        for site in self.sites:
            ok, burst = yield _Rpc(site, "ship_local_skyline", (self.threshold,))
            if not ok:
                continue
            for _ in burst:
                self.stats.bill(MessageKind.REPRESENTATIVE, self._name(site), _SERVER)
            self.stats.record_round(tuples_in_round=len(burst))
            gathered.extend(burst)
        gathered.sort(key=lambda q: -q.local_probability)
        for quaternion in gathered:
            self.iterations += 1
            triples = yield from self._broadcast_probes_batch_script([quaternion])
            ((global_probability,), _factors) = self._fold([quaternion], triples)
            self.emit(quaternion.tuple, global_probability)
            # Each candidate costs one broadcast round — a scheduling
            # point, so served naive sessions interleave per round
            # instead of monopolising the scheduler for the whole query.
            yield
