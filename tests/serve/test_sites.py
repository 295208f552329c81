"""Shared standing state: site hosts, replica books, the liveness book."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.dominance import Preference
from repro.core.tuples import UncertainTuple
from repro.distributed.dsud import DSUD
from repro.distributed.query import assemble_coordinator, build_sites, distributed_skyline
from repro.distributed.site import LocalSite
from repro.fault.injection import FaultyEndpoint
from repro.fault.liveness import LivenessBook
from repro.fault.schedule import FaultSchedule
from repro.replica.manager import ReplicaManager
from repro.serve import SharedSiteHost, StandingReplicaBook

from ..conftest import make_random_database

DB = make_random_database(120, 3, seed=23)
PARTITIONS = [DB[i::4] for i in range(4)]
Q = 0.3
#: Dominates every stored tuple: a session that sees it loses its answer.
DOMINATING = UncertainTuple(90_000, (0.0, 0.0, 0.0), 0.9)


# ----------------------------------------------------------------------
# SharedSiteHost


def test_templates_are_cached_per_preference():
    host = SharedSiteHost(0, PARTITIONS[0])
    assert host.templates_built == 0
    full = host.template()
    assert host.template() is full
    sub = host.template(Preference(subspace=(0, 1)))
    assert sub is not full
    assert host.templates_built == 2


def test_views_share_the_standing_index_but_not_queue_state():
    host = SharedSiteHost(0, PARTITIONS[0])
    a = host.view()
    b = host.view()
    assert host.forks_served == 2
    assert a is not b
    assert a.database is b.database
    assert a.kernel is b.kernel
    a.prepare(0.3)
    b.prepare(0.3)
    first_from_a = a.pop_representative()
    # a's pop did not consume b's queue: b still yields the same head.
    assert b.pop_representative() == first_from_a
    assert a.queue_size() == b.queue_size()


def test_view_matches_a_fresh_solo_site_exactly():
    host = SharedSiteHost(0, PARTITIONS[0])
    view = host.view()
    solo = build_sites([PARTITIONS[0]])[0]
    assert view.prepare(0.4) == solo.prepare(0.4)
    while True:
        ours, theirs = view.pop_representative(), solo.pop_representative()
        assert ours == theirs
        if ours is None:
            break


def test_maintenance_applies_to_templates_and_future_views():
    host = SharedSiteHost(0, PARTITIONS[0])
    before = host.view().prepare(0.99)  # deep queue: almost nothing pruned
    extra = make_random_database(1, 3, seed=99, start_key=10_000)[0]
    host.apply_insert(extra)
    assert len(host) == len(PARTITIONS[0]) + 1
    assert extra.key in host.template().database
    assert host.view().prepare(0.99) >= before
    host.apply_delete(extra.key)
    assert extra.key not in host.template().database


def _observed(host):
    view = host.view()
    size = view.prepare(Q)
    pops = [(q.key, q.local_probability.hex()) for q in iter(view.pop_representative, None)]
    return len(host), view.ship_all(), size, pops


@pytest.mark.parametrize("built", [False, True])
def test_a_refused_host_write_changes_nothing(built):
    host = SharedSiteHost(0, PARTITIONS[0])
    if built:
        host.template()
    before = _observed(SharedSiteHost(0, PARTITIONS[0]))  # a never-written twin
    stored = PARTITIONS[0][3]
    with pytest.raises(ValueError, match="duplicate tuple key"):
        host.apply_insert(stored)
    with pytest.raises(ValueError, match="dimensionality"):
        host.apply_insert(UncertainTuple(9_000, (0.0, 0.0), 0.5))
    with pytest.raises(KeyError):
        host.apply_delete(9_999)
    assert _observed(host) == before


def _seen(result):
    return (
        [(m.key, m.probability.hex()) for m in result.answer],
        result.stats.messages,
        result.stats.tuples_transmitted,
        result.stats.failovers,
    )


def _finish_across(coordinator, pump, writes, after=2):
    """Draw ``after`` scheduling points, run ``writes``, finish the query."""
    if pump == "steps":
        steps = coordinator.steps()
        for _ in range(after):
            next(steps)
        writes()
        for _ in steps:
            pass
        return coordinator.finish()

    async def drive():
        steps = coordinator.asteps()
        for _ in range(after):
            await steps.__anext__()
        writes()
        async for _ in steps:
            pass
        return await coordinator.afinish()

    return asyncio.run(drive())


def _host_writes(hosts, inserted_at, deleted_at):
    def writes():
        hosts[inserted_at].apply_insert(DOMINATING)
        hosts[deleted_at].apply_delete(PARTITIONS[deleted_at][0].key)

    return writes


@pytest.mark.parametrize("pump", ["steps", "asteps"])
@pytest.mark.parametrize("algorithm", ["dsud", "edsud"])
def test_a_session_reads_the_version_it_was_forked_from(algorithm, pump):
    hosts = [SharedSiteHost(i, p) for i, p in enumerate(PARTITIONS)]
    coordinator = assemble_coordinator([h.view() for h in hosts], Q, algorithm=algorithm)
    result = _finish_across(coordinator, pump, _host_writes(hosts, 0, 2))
    assert _seen(result) == _seen(distributed_skyline(PARTITIONS, Q, algorithm=algorithm))


def test_a_view_after_host_writes_is_a_fresh_site():
    partition = make_random_database(300, 3, seed=41)
    inserts = make_random_database(20, 3, seed=42, start_key=10_000)
    deletes = [t.key for t in partition[::30]]
    host = SharedSiteHost(0, partition)
    host.view().prepare(Q)  # a template standing before the writes
    for t in inserts:
        host.apply_insert(t)
    for key in deletes:
        host.apply_delete(key)
    now = [t for t in partition + inserts if t.key not in deletes]
    probes = make_random_database(50, 3, seed=43, start_key=20_000)
    got = host.view().probe_batch(probes)
    assert [f.hex() for f in got] == [f.hex() for f in LocalSite(0, now).probe_batch(probes)]
    # A session built after the writes answers over the new partition.
    hosts = [SharedSiteHost(i, p) for i, p in enumerate(PARTITIONS)]
    _host_writes(hosts, 0, 2)()
    after = [PARTITIONS[0] + [DOMINATING], PARTITIONS[1], PARTITIONS[2][1:], PARTITIONS[3]]
    result = assemble_coordinator([h.view() for h in hosts], Q, algorithm="edsud").run()
    assert _seen(result) == _seen(distributed_skyline(after, Q, algorithm="edsud"))


# ----------------------------------------------------------------------
# StandingReplicaBook


def test_standing_book_reproduces_solo_placement():
    sites = [SharedSiteHost(i, p) for i, p in enumerate(PARTITIONS)]
    book = StandingReplicaBook(sites)
    session_sites = [host.view() for host in sites]
    issued = book.manager_for(session_sites, replication_factor=2)
    solo = ReplicaManager.provision(build_sites(PARTITIONS), 2)

    def placement(manager):
        return {sid: [host for host, _ in pairs] for sid, pairs in manager.replicas.items()}

    assert placement(issued) == placement(solo)
    assert book.managers_issued == 1


def test_standing_book_injects_pre_provisioned_template_forks():
    sites = [SharedSiteHost(i, p) for i, p in enumerate(PARTITIONS)]
    book = StandingReplicaBook(sites)
    manager = book.manager_for(
        [host.view() for host in sites], replication_factor=2
    )
    for sid, copies in manager.replicas.items():
        template = sites[sid].template()
        for _buddy, replica in copies:
            # A fork of the standing template: same data, private queue.
            assert replica is not template
            assert replica.database is template.database
    # Nothing shipped: the manager's standing book stays empty.
    assert manager.stats.messages == 0


def test_a_book_issued_manager_refuses_forwarded_writes():
    hosts = [SharedSiteHost(i, p) for i, p in enumerate(PARTITIONS)]
    manager = StandingReplicaBook(hosts).manager_for(
        [h.view() for h in hosts], replication_factor=3
    )
    template = hosts[1].template()
    stored = dict(template.database)
    with pytest.raises(RuntimeError, match="refuses updates"):
        manager.forward_insert(1, UncertainTuple(99_003, (2.0, 2.0, 2.0), 0.6))
    with pytest.raises(RuntimeError, match="refuses updates"):
        manager.forward_delete(1, PARTITIONS[1][0].key)
    assert hosts[1].template() is template and template.database == stored
    assert len(hosts[1]) == len(PARTITIONS[1])
    assert manager.stats.snapshot() == ReplicaManager({}).stats.snapshot()


@pytest.mark.parametrize("algorithm", ["dsud", "edsud"])
def test_a_failover_after_host_writes_reads_the_forked_version(algorithm):
    def crash():
        return FaultSchedule().crash(1, at_call=3)

    hosts = [SharedSiteHost(i, p) for i, p in enumerate(PARTITIONS)]
    schedule = crash()
    sites = [FaultyEndpoint(h.view(), schedule) for h in hosts]
    manager = StandingReplicaBook(hosts).manager_for(sites, replication_factor=2)
    coordinator = assemble_coordinator(sites, Q, algorithm=algorithm, replica_manager=manager)
    result = _finish_across(coordinator, "steps", _host_writes(hosts, 1, 3), after=1)
    solo = distributed_skyline(
        PARTITIONS, Q, algorithm=algorithm, fault_schedule=crash(), replication_factor=2
    )
    assert result.stats.failovers >= 1
    assert _seen(result) == _seen(solo)


# ----------------------------------------------------------------------
# LivenessBook


def test_liveness_book_epochs_and_counters():
    book = LivenessBook()
    assert book.epoch == 0 and len(book) == 0
    assert book.lookup(("site", 3)) is None
    book.record(("site", 3), False)
    assert book.probes == 1
    assert book.lookup(("site", 3)) is False
    assert book.hits == 1
    book.advance()
    assert book.epoch == 1
    assert book.lookup(("site", 3)) is None  # stale: a new epoch re-probes
    assert len(book) == 0


def test_shared_book_deduplicates_liveness_probes_across_queries():
    always_down = FaultSchedule(seed=0).crash(0, at_call=0)
    book = LivenessBook()
    book.advance()

    def coordinator() -> DSUD:
        sites = build_sites(PARTITIONS)
        wrapped = [FaultyEndpoint(sites[0], always_down)] + list(sites[1:])
        return DSUD(wrapped, 0.3, liveness_book=book)

    def probe(query: DSUD) -> bool:
        return query._drive(query._probe_liveness_script(query.sites[0]))

    first, second = coordinator(), coordinator()
    assert probe(first) is False
    assert book.probes == 1
    baseline = second.stats.messages
    # The second query reads the epoch's verdict: no new CONTROL
    # message, no new probe — the snapshot answered.
    assert probe(second) is False
    assert book.probes == 1 and book.hits == 1
    assert second.stats.messages == baseline
    # A new epoch makes every verdict stale again.
    book.advance()
    assert probe(second) is False
    assert book.probes == 2


def test_private_book_is_the_default():
    sites = build_sites(PARTITIONS)
    assert DSUD(sites, 0.3).liveness_book is None


def test_book_keys_separate_site_and_primary_probes():
    book = LivenessBook()
    book.record(("site", 0), False)
    assert book.lookup(("primary", 0)) is None
    book.record(("primary", 0), True)
    assert book.lookup(("site", 0)) is False
    assert book.lookup(("primary", 0)) is True


@pytest.mark.parametrize("replication_factor", [1, 2])
def test_hosts_survive_replicated_and_plain_sessions(replication_factor):
    # Regression guard: issuing managers must not mutate host templates.
    sites = [SharedSiteHost(i, p) for i, p in enumerate(PARTITIONS)]
    book = StandingReplicaBook(sites)
    if replication_factor > 1:
        book.manager_for([h.view() for h in sites], replication_factor)
    counts = [len(h.template().database) for h in sites]
    assert counts == [len(p) for p in PARTITIONS]
