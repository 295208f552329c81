"""Contracts for :class:`StreamSite`'s probes: one batch per group per
epoch, and every pushed factor bit-identical to a single probe."""

from __future__ import annotations

from repro.core.dominance import Preference
from repro.data.workload import make_synthetic_stream
from repro.distributed.site import LocalSite
from repro.stream import ContinuousCoordinator, CountWindow, StandingQuery, StreamSite


def test_epoch_factors_are_single_probe_bits_and_never_single_probes(monkeypatch):
    hub = ContinuousCoordinator([StreamSite(i, CountWindow(20)) for i in range(3)])
    hub.register(StandingQuery(threshold=0.3))
    hub.register(StandingQuery(threshold=0.25, preference=Preference(subspace=(0, 2))))
    single_probes = []
    probe = LocalSite.probe

    def spy(site, t):
        single_probes.append(t.key)
        return probe(site, t)

    monkeypatch.setattr(LocalSite, "probe", spy)
    arrivals = make_synthetic_stream(n=180, d=3, sites=3, seed=46)
    for i, arrival in enumerate(arrivals):
        hub.ingest(arrival.site_id, arrival.tuple, arrival.stamp)
        if (i + 1) % 15 == 0:  # 12 epochs; the 60-slot windows churn 3 times
            hub.close_epoch()
    assert single_probes == []
    checked = 0
    for site in hub.sites:
        for group in site._groups.values():
            for key, replica in group.replicas.items():
                assert group.factors[key].hex() == probe(group.engine, replica).hex()
                checked += 1
    assert checked > 0
