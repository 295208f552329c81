"""The §3.2 baseline: ship every local database to the server.

Each site transmits its entire partition; the coordinator unions the
``m`` partitions and runs a centralized probabilistic skyline.  Total
bandwidth is ``|D| = Σ |D_i|`` tuples — the yardstick everything else
is measured against — and progressiveness is the worst possible: not a
single result can be reported before all data has arrived and the full
centralized computation has finished.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..core.prob_skyline import prob_skyline_sfs
from ..core.tuples import UncertainTuple
from ..net.message import MessageKind
from .coordinator import _SERVER, Coordinator
from .engine import _Request, _Rpc

__all__ = ["ShipAllBaseline"]


class ShipAllBaseline(Coordinator):
    """Transmit everything, compute centrally."""

    algorithm = "ship-all"

    def _steps(self) -> Generator[Optional[_Request], Any, None]:
        union: List[UncertainTuple] = []
        for site in self.sites:
            # The RPC funnel keeps even the strawman fault-tolerant: an
            # unreachable partition is simply absent from the union, and
            # the answer degrades to the reachable sites' data.
            ok, shipped = yield _Rpc(site, "ship_all")
            if not ok:
                continue
            for _ in shipped:
                self.stats.bill(MessageKind.DATA, self._names[site.site_id], _SERVER)
            self.stats.record_round(tuples_in_round=len(shipped))
            union.extend(shipped)
        self.iterations = 1
        answer = prob_skyline_sfs(union, self.threshold, self.preference)
        for member in answer:
            self.emit(member.tuple, member.probability)
