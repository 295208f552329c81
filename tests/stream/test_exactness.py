"""The epoch-equivalence acceptance suite.

The subsystem's contract: after **every** closed epoch, each standing
query's pushed result is bit-identical — keys, probabilities, and
canonical order — to a fresh
:func:`~repro.distributed.query.distributed_skyline` run over the
current live window contents of all sites.  Checked here for the three
window kinds crossed with {plain, subspace, top-k} standing queries
under a seeded chaos schedule (irregular epoch boundaries, explicit
clock advances, mid-stream registration and unregistration), and for
a shallow count window whose every arrival closes an epoch.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro.core.dominance import Preference
from repro.distributed.query import distributed_skyline
from repro.data.workload import make_synthetic_stream
from repro.stream import ContinuousCoordinator, StandingQuery, StreamSite, make_window
from repro.stream.site import streaming_site_config

SITES = 3
ARRIVALS = make_synthetic_stream(n=150, d=3, sites=SITES, seed=421)
#: (window kind, size knob, arrivals per scheduled epoch) per case.
#: Sizes are tuned so windows actually churn: the stream's mean
#: inter-arrival is ~1, so a ~25-wide time span holds roughly as many
#: live tuples as the 25-deep count window.
CASES = {
    "count": ("count", 25.0, 15),
    "count-per-arrival": ("count", 6.0, 1),
    "sliding-time": ("sliding-time", 25.0, 15),
    "tumbling-time": ("tumbling-time", 30.0, 15),
}


def _fresh_view(
    hub: ContinuousCoordinator, query: StandingQuery
) -> List[Tuple[int, float]]:
    """What a from-scratch run says the query's view must be."""
    answer = distributed_skyline(
        hub.live_partitions(),
        query.threshold,
        algorithm="edsud",
        preference=query.preference,
        site_config=streaming_site_config(),
    ).answer
    members = list(answer.members)  # already in canonical (-P, key) order
    if query.limit is not None:
        members = members[: query.limit]
    return [(m.key, m.probability) for m in members]


def _standing_view(
    hub: ContinuousCoordinator, query_id: int
) -> List[Tuple[int, float]]:
    return [(m.key, m.probability) for m in hub.result(query_id).members]


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_epoch_matches_a_fresh_run_bitwise(case: str):
    kind, size, epoch_every = CASES[case]
    hub = ContinuousCoordinator(
        [StreamSite(i, make_window(kind, size)) for i in range(SITES)]
    )
    queries: Dict[int, StandingQuery] = {}

    def admit(query: StandingQuery) -> int:
        query_id = hub.register(query)
        queries[query_id] = query
        return query_id

    admit(StandingQuery(threshold=0.35))
    subspace_id = admit(
        StandingQuery(threshold=0.3, preference=Preference(subspace=(0, 1)))
    )
    chaos = random.Random(97)
    epochs = 0
    nonempty = 0
    for i, arrival in enumerate(ARRIVALS):
        hub.ingest(arrival.site_id, arrival.tuple, arrival.stamp)
        if chaos.random() < 0.25 and i + 1 < len(ARRIVALS):
            # Let time pass partway to the next arrival: time windows
            # expire between pushes, count windows must not care.
            halfway = (arrival.stamp + ARRIVALS[i + 1].stamp) / 2.0
            hub.advance(halfway)
        if (i + 1) % epoch_every == 0 or chaos.random() < 0.08:
            hub.close_epoch()
            epochs += 1
            for query_id, query in queries.items():
                got = _standing_view(hub, query_id)
                assert got == _fresh_view(hub, query), (
                    f"epoch {hub.epoch} ({case}): standing view for query "
                    f"{query_id} drifted from the fresh run"
                )
                nonempty += bool(got)
            if epochs == 2:
                # Chaos: the top-k query arrives mid-stream...
                admit(StandingQuery(threshold=0.25, limit=5))
            if epochs == 7:
                # ...and the subspace query leaves again.
                hub.unregister(subspace_id)
                del queries[subspace_id]
    assert epochs >= 10
    assert nonempty > epochs  # the checks were not vacuous
    # The edge pre-filter never ships as much as naive forwarding,
    # which would uplink every arrival.
    assert 0 < hub.candidates_shipped < hub.arrivals_total

