"""What one Server-Delivery round costs the coordinator, with free sites.

Every iteration of the §5 loop broadcasts its batch to the other sites
and pops each origin's next representative on the same fan-out, so the
coordinator's own work per round is paid on every iteration of every
query.  Here the sites are stubs that answer at once, so what is left
is the coordinator and the engine: the Python-level calls of one
healthy round (this module's own frames, stubs included, left out) are
pinned under both pumps, and the round's books — billed once per kind
per round — must equal one bill per message.

The bounds are this engine's counts on CPython 3.10 and 3.11 (60/61
calls, blocking/awaiting pump, at k = 1; 107/108 at k = 4) plus a
small margin; 3.12 and 3.13 count fewer (54/56 and 93/95).  With a
generator per call and one bill per message the same round made
158/171 and 242/263.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Any, Dict, List, Tuple

import pytest

from repro.core.tuples import UncertainTuple
from repro.distributed.coordinator import Coordinator
from repro.distributed.site import BatchProbeReply, ProbeReply
from repro.fault.errors import SiteCrashed
from repro.net.message import MessageKind, Quaternion
from repro.net.stats import NetworkStats

M = 6

#: (k, pump) → the most Python-level calls one round may make.
BOUNDS = {(1, "blocking"): 64, (1, "awaiting"): 65, (4, "blocking"): 112, (4, "awaiting"): 113}


class StubSite:
    """Answers at once and journals what it was asked."""

    def __init__(self, site_id: int, crash_on_probe: bool = False) -> None:
        self.site_id = site_id
        self.crash_on_probe = crash_on_probe
        self.calls: List[Tuple[str, int]] = []  # (method, tuples carried)
        self._next = Quaternion(site_id, UncertainTuple(100 + site_id, (1.0, 2.0), 0.9), 0.5)

    def prepare(self, threshold: float) -> int:
        return 1

    def pop_representative(self) -> Quaternion:
        self.calls.append(("pop_representative", 0))
        return self._next

    def probe_and_prune(self, t: UncertainTuple) -> ProbeReply:
        self.calls.append(("probe_and_prune", 1))
        if self.crash_on_probe:
            raise SiteCrashed(self.site_id, "stub")
        return ProbeReply(0.5, 0, 1)

    def probe_and_prune_batch(self, ts: List[UncertainTuple]) -> BatchProbeReply:
        self.calls.append(("probe_and_prune_batch", len(ts)))
        if self.crash_on_probe:
            raise SiteCrashed(self.site_id, "stub")
        return BatchProbeReply([0.5] * len(ts), 0, 1)

    def queue_size(self) -> int:
        return 1


def one_round(k: int, crashed: int = -1) -> Tuple[Coordinator, List[StubSite], Any]:
    """A coordinator over stubs, and the script of its next round.

    Sites 0 … k − 1 each originate one batch tuple and refill by a pop
    riding the broadcast, settled afterwards as the run loop does.
    """
    sites = [StubSite(i, crash_on_probe=i == crashed) for i in range(M)]
    coordinator = Coordinator(sites, 0.3, batch_size=k)
    heads = [Quaternion(i, UncertainTuple(i, (float(i), 1.0), 0.9), 0.8) for i in range(k)]

    def script():
        origins = sites[:k]
        yield from coordinator._broadcast_probes_batch_script(heads, refill=origins)
        for site in origins:
            yield from coordinator._fetch_representative_script(site)

    return coordinator, sites, script()


def run(coordinator: Coordinator, script: Any, pump: str) -> int:
    """Drive the round; the Python-level calls it made outside this module."""
    calls = 0

    def profile(frame: Any, event: str, arg: Any) -> None:
        nonlocal calls
        if event == "call" and frame.f_code.co_filename != __file__:
            calls += 1

    if pump == "blocking":
        sys.setprofile(profile)
        try:
            coordinator._drive(script)
        finally:
            sys.setprofile(None)
        return calls

    async def main() -> None:
        rounds = coordinator._apump(script)
        sys.setprofile(profile)
        try:
            async for _ in rounds:
                pass
        finally:
            sys.setprofile(None)

    asyncio.run(main())
    return calls


def per_message_books(sites: List[StubSite]) -> Dict[str, Any]:
    """The books of one ``bill`` per message, from what each stub was asked."""
    stats = NetworkStats()
    for site in sites:
        name = f"site-{site.site_id}"
        for method, tuples in site.calls:
            if method == "pop_representative":
                stats.bill(MessageKind.NEXT_REQUEST, "server", name)
                stats.bill(MessageKind.REPRESENTATIVE, name, "server")
            else:
                stats.bill(MessageKind.FEEDBACK, "server", name, tuples=tuples)
                if not site.crash_on_probe:
                    stats.bill(MessageKind.PROBE_REPLY, name, "server")
    return books(stats)


def books(stats: NetworkStats) -> Dict[str, Any]:
    snapshot = stats.snapshot()
    keys = ("messages", "by_kind", "tuples_transmitted", "tuples_to_server", "tuples_from_server")
    return {key: snapshot[key] for key in keys}


@pytest.mark.parametrize("pump", ["blocking", "awaiting"])
@pytest.mark.parametrize("k", [1, 4])
def test_a_healthy_round_costs_per_round_not_per_site(k, pump):
    warm, _sites, script = one_round(k)
    run(warm, script, pump)  # the engine's first sighting of each reply type
    coordinator, sites, script = one_round(k)
    calls = run(coordinator, script, pump)
    assert calls <= BOUNDS[(k, pump)], calls
    assert books(coordinator.stats) == per_message_books(sites)
    targets = M - 1 if k == 1 else M
    assert coordinator.stats.by_kind == {
        "feedback": targets,
        "probe_reply": targets,
        "next_request": k,
        "representative": k,
    }


@pytest.mark.parametrize("k", [1, 4])
def test_a_site_dying_mid_broadcast_costs_the_attempt_not_the_reply(k):
    coordinator, sites, script = one_round(k, crashed=M - 1)
    coordinator._drive(script)
    assert books(coordinator.stats) == per_message_books(sites)
    assert coordinator.stats.by_kind["probe_reply"] == coordinator.stats.by_kind["feedback"] - 1
    assert coordinator.health.down_sites() == [M - 1]
