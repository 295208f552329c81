"""Contracts for :class:`ContinuousCoordinator`: registration, delta
ordering, billing, and delta-stream replay."""

from __future__ import annotations

import random
from typing import Dict

import pytest

from repro.core.dominance import Preference
from repro.core.tuples import UncertainTuple
from repro.data.workload import make_synthetic_stream
from repro.stream import (
    ContinuousCoordinator,
    CountWindow,
    DeltaKind,
    StandingQuery,
    StreamSite,
)


def _coordinator(sites: int = 3, capacity: int = 16) -> ContinuousCoordinator:
    return ContinuousCoordinator(
        [StreamSite(i, CountWindow(capacity)) for i in range(sites)]
    )


def _t(key: int, values, p: float) -> UncertainTuple:
    return UncertainTuple(key, tuple(float(v) for v in values), p)


class TestConstruction:
    def test_needs_at_least_one_site(self):
        with pytest.raises(ValueError, match="at least one"):
            ContinuousCoordinator([])

    def test_site_ids_must_be_unique_and_ascending(self):
        dup = [StreamSite(0, CountWindow(4)), StreamSite(0, CountWindow(4))]
        with pytest.raises(ValueError, match="unique and ascending"):
            ContinuousCoordinator(dup)
        unordered = [StreamSite(1, CountWindow(4)), StreamSite(0, CountWindow(4))]
        with pytest.raises(ValueError, match="unique and ascending"):
            ContinuousCoordinator(unordered)


class TestRegistration:
    def test_register_returns_distinct_ids_and_records_the_query(self):
        hub = _coordinator()
        a = hub.register(StandingQuery(threshold=0.4))
        b = hub.register(StandingQuery(threshold=0.3))
        assert a != b
        assert set(hub.queries()) == {a, b}
        # Nothing has arrived yet: both answers start empty.
        assert len(hub.result(a)) == 0 and len(hub.result(b)) == 0

    def test_only_a_lowered_q_min_travels_to_the_sites(self):
        hub = _coordinator(sites=3)
        hub.register(StandingQuery(threshold=0.4))
        baseline = hub.stats.by_kind.get("subscribe", 0)
        # A *tighter* query rides the existing group bound: control
        # traffic is one client->server message, no site fan-out.
        hub.register(StandingQuery(threshold=0.6))
        assert hub.stats.by_kind["subscribe"] == baseline + 1
        # A *looser* query lowers q_min, which must reach every edge.
        hub.register(StandingQuery(threshold=0.2))
        assert hub.stats.by_kind["subscribe"] == baseline + 2 + 3

    def test_unregister_re_fans_only_when_q_min_moves(self):
        hub = _coordinator(sites=3)
        loose = hub.register(StandingQuery(threshold=0.2))
        hub.register(StandingQuery(threshold=0.6))
        baseline = hub.stats.by_kind["subscribe"]
        # The tighter query never set the group bound: nothing to fan.
        tight = hub.register(StandingQuery(threshold=0.5))
        hub.unregister(tight)
        assert hub.stats.by_kind["subscribe"] == baseline + 1
        # The query that set q_min leaves: the raised bound reaches
        # every site.
        hub.unregister(loose)
        assert hub.stats.by_kind["subscribe"] == baseline + 1 + 3
        assert all(site._groups[0].threshold == 0.6 for site in hub.sites)

    def test_preferences_get_their_own_groups(self):
        hub = _coordinator(sites=2)
        hub.register(StandingQuery(threshold=0.4))
        before = hub.stats.by_kind.get("subscribe", 0)
        # Same threshold, different preference: a brand-new group, so
        # the bound fans out to both sites regardless.
        hub.register(
            StandingQuery(threshold=0.4, preference=Preference(subspace=(0,)))
        )
        assert hub.stats.by_kind["subscribe"] == before + 1 + 2

    def test_unregister_unknown_query_raises(self):
        hub = _coordinator()
        with pytest.raises(KeyError, match="no standing query"):
            hub.unregister(99)

    def test_unregister_last_query_tears_the_group_down(self):
        hub = _coordinator(sites=2, capacity=4)
        qid = hub.register(StandingQuery(threshold=0.4))
        hub.ingest(0, _t(0, (0, 0), 0.9))
        hub.close_epoch()
        hub.unregister(qid)
        # The group is gone end-to-end: a fresh epoch has nothing to
        # reconcile and nothing to notify.
        assert hub.close_epoch() == []
        with pytest.raises(KeyError):
            hub.result(qid)

    def test_mid_stream_registration_sees_the_live_window(self):
        hub = _coordinator(sites=2, capacity=8)
        hub.ingest(0, _t(0, (0, 0), 0.9))
        hub.ingest(1, _t(1, (1, 1), 0.8))
        qid = hub.register(StandingQuery(threshold=0.3))
        deltas = hub.close_epoch()
        assert {d.key for d in deltas if d.kind is DeltaKind.ENTER} >= {0}
        assert all(d.query_id == qid for d in deltas)


class TestIngest:
    def test_unknown_site_raises_index_error(self):
        hub = _coordinator(sites=2)
        with pytest.raises(IndexError, match="no site"):
            hub.ingest(2, _t(0, (0, 0), 0.5))

    def test_duplicate_stream_keys_are_rejected(self):
        hub = _coordinator()
        hub.ingest(0, _t(7, (0, 0), 0.5))
        with pytest.raises(ValueError, match="already live or previously seen"):
            hub.ingest(1, _t(7, (1, 1), 0.5))


class TestDeltas:
    def test_first_epoch_enters_in_canonical_order(self):
        hub = _coordinator(sites=2, capacity=8)
        hub.register(StandingQuery(threshold=0.3))
        hub.ingest(0, _t(0, (0.0, 5.0), 0.7))
        hub.ingest(1, _t(1, (5.0, 0.0), 0.9))
        deltas = hub.close_epoch()
        assert all(d.kind is DeltaKind.ENTER for d in deltas)
        ranked = [(-d.probability, d.key) for d in deltas]
        assert ranked == sorted(ranked)
        for d in deltas:
            assert d.tuple is not None and d.probability is not None

    def test_exits_come_first_sorted_by_key(self):
        hub = _coordinator(sites=1, capacity=2)
        hub.register(StandingQuery(threshold=0.3))
        hub.ingest(0, _t(0, (0.0, 9.0), 0.9))
        hub.ingest(0, _t(1, (9.0, 0.0), 0.9))
        hub.close_epoch()
        # Both incomparable seeds get evicted by the next two arrivals.
        hub.ingest(0, _t(2, (1.0, 8.0), 0.9))
        hub.ingest(0, _t(3, (8.0, 1.0), 0.9))
        deltas = hub.close_epoch()
        kinds = [d.kind for d in deltas]
        exits = [d.key for d in deltas if d.kind is DeltaKind.EXIT]
        assert exits == sorted(exits) == [0, 1]
        assert kinds[: len(exits)] == [DeltaKind.EXIT] * len(exits)

    def test_rescore_fires_when_probability_moves(self):
        hub = _coordinator(sites=2, capacity=8)
        hub.register(StandingQuery(threshold=0.3))
        hub.ingest(0, _t(0, (5.0, 5.0), 0.9))
        hub.close_epoch()
        # A dominating arrival at the *other* site drags key 0's global
        # probability down (but not below threshold).
        hub.ingest(1, _t(1, (1.0, 1.0), 0.4))
        deltas = hub.close_epoch()
        rescored = [d for d in deltas if d.kind is DeltaKind.RESCORE]
        assert [d.key for d in rescored] == [0]
        assert rescored[0].probability == pytest.approx(0.9 * 0.6)

    def test_quiet_epoch_costs_no_messages_and_emits_nothing(self):
        hub = _coordinator(sites=2, capacity=8)
        hub.register(StandingQuery(threshold=0.3))
        hub.ingest(0, _t(0, (0, 0), 0.9))
        hub.close_epoch()
        before = hub.stats.messages
        assert hub.close_epoch() == []
        assert hub.stats.messages == before

    def test_suppressed_arrival_ships_zero_tuples(self):
        hub = _coordinator(sites=2, capacity=3)
        qid = hub.register(StandingQuery(threshold=0.3))
        hub.ingest(0, _t(0, (0.0, 0.0), 0.9))
        hub.close_epoch()
        shipped = hub.stats.tuples_transmitted
        # Dominated and near-impossible: the edge pre-filter provably
        # keeps it off the wire.
        hub.ingest(0, _t(1, (9.0, 9.0), 0.01))
        hub.close_epoch()
        assert hub.stats.tuples_transmitted == shipped
        assert hub.candidates_shipped == 1
        # Likely but held under q by key 0 (0.9 × 0.1): suppressed too...
        hub.ingest(0, _t(2, (1.0, 1.0), 0.9))
        assert hub.close_epoch() == []
        assert hub.candidates_shipped == 1
        # ...until key 0 slides out of the window and key 2 surfaces.
        hub.ingest(0, _t(3, (9.5, 0.5), 0.5))
        deltas = hub.close_epoch()
        assert [(d.kind, d.key) for d in deltas[:1]] == [(DeltaKind.EXIT, 0)]
        assert 2 in {d.key for d in deltas if d.kind is DeltaKind.ENTER}
        assert {m.key: m.probability for m in hub.result(qid).members}[2] == 0.9


class TestViews:
    def test_limit_takes_the_top_k_of_the_full_view(self):
        hub = _coordinator(sites=2, capacity=32)
        full_id = hub.register(StandingQuery(threshold=0.3))
        top_id = hub.register(StandingQuery(threshold=0.3, limit=2))
        rng = random.Random(13)
        for key in range(10):
            values = (float(rng.randrange(8)), float(rng.randrange(8)))
            hub.ingest(key % 2, _t(key, values, 0.3 + 0.7 * rng.random()))
        hub.close_epoch()
        full = hub.result(full_id).members
        top = hub.result(top_id).members
        assert len(top) == min(2, len(full))
        assert [(m.key, m.probability) for m in top] == [
            (m.key, m.probability) for m in full[: len(top)]
        ]

    def test_replaying_the_delta_stream_reconstructs_every_view(self):
        arrivals = make_synthetic_stream(n=120, d=2, sites=3, seed=5)
        hub = ContinuousCoordinator(
            [StreamSite(i, CountWindow(20)) for i in range(3)]
        )
        plain = hub.register(StandingQuery(threshold=0.35))
        sub = hub.register(
            StandingQuery(threshold=0.3, preference=Preference(subspace=(0,)))
        )
        topk = hub.register(StandingQuery(threshold=0.25, limit=4))
        replayed: Dict[int, Dict[int, float]] = {plain: {}, sub: {}, topk: {}}
        epochs_checked = 0
        for i, arrival in enumerate(arrivals):
            hub.ingest(arrival.site_id, arrival.tuple, arrival.stamp)
            if (i + 1) % 15 != 0:
                continue
            for delta in hub.close_epoch():
                view = replayed[delta.query_id]
                if delta.kind is DeltaKind.EXIT:
                    del view[delta.key]
                else:
                    view[delta.key] = delta.probability
            for query_id, view in replayed.items():
                want = {
                    m.key: m.probability for m in hub.result(query_id).members
                }
                assert view == want  # bitwise: same keys, same floats
            epochs_checked += 1
        assert epochs_checked == 8
        assert any(replayed[qid] for qid in replayed)
        assert hub.stats.by_kind["delta"] >= 1
        assert hub.stats.by_kind["notify"] >= 1
        # Ledger identity: the only tuple-bearing traffic is entered
        # candidates up (DELTA) and replicas down (REPLICA_SYNC).
        assert (
            hub.stats.tuples_transmitted
            == hub.candidates_shipped + hub.replicas_shipped
        )
