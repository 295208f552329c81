"""ReplicaManager contracts: provisioning, forwarding, digests, repair."""

import pytest

from repro.core.tuples import UncertainTuple
from repro.distributed.query import build_sites
from repro.net.stats import NetworkStats
from repro.replica.manager import ReplicaManager

from ..conftest import make_random_database


def make_cluster(m=4, n=80, factor=2, seed=5):
    db = make_random_database(n, 2, seed=seed, grid=10)
    sites = build_sites([db[i::m] for i in range(m)])
    return sites, ReplicaManager.provision(sites, factor)


def first_replica(mgr, site_id):
    return mgr.replicas[site_id][0][1]


class TestProvisioning:
    def test_replicas_hold_byte_identical_partitions(self):
        sites, mgr = make_cluster()
        for site in sites:
            replica = first_replica(mgr, site.site_id)
            assert replica.site_id == site.site_id
            assert replica.partition_digest() == site.partition_digest()

    def test_ready_replicas_ship_nothing(self):
        # The serving layer's construction path: replicas handed in
        # ready, so the new manager's standing book stays empty.
        _sites, provisioned = make_cluster()
        mgr = ReplicaManager(provisioned.replicas)
        assert mgr.replicas == provisioned.replicas
        assert mgr.stats.messages == 0

    def test_provisioning_bills_one_partition_per_copy(self):
        sites, mgr = make_cluster(factor=3)
        expected = sum(2 * len(site.database) for site in sites)
        assert mgr.stats.tuples_transmitted == expected
        assert all(len(pairs) == 2 for pairs in mgr.replicas.values())

    def test_factor_one_provisions_nothing(self):
        _sites, mgr = make_cluster(factor=1)
        assert mgr.replicas == {}
        assert mgr.stats.messages == 0

    def test_resync_bills_the_book_it_is_handed(self):
        sites, mgr = make_cluster()
        standing = mgr.stats.snapshot()
        query_book = NetworkStats()
        mgr.resync(0, first_replica(mgr, 0), sites[0], query_book)
        assert query_book.by_kind == {"digest": 2}
        assert mgr.stats.snapshot() == standing


class TestWriteForwarding:
    def test_forwarded_insert_keeps_digests_equal(self):
        sites, mgr = make_cluster()
        t = UncertainTuple(9001, (3.0, 4.0), 0.8)
        sites[1].insert_tuple(t)
        mgr.forward_insert(1, t)
        assert first_replica(mgr, 1).partition_digest() == sites[1].partition_digest()
        assert not mgr.resync(1, sites[1], first_replica(mgr, 1), NetworkStats())

    def test_forwarded_delete_cannot_resurrect(self):
        sites, mgr = make_cluster()
        victim_key = sorted(sites[2].database)[0]
        sites[2].delete_tuple(victim_key)
        mgr.forward_delete(2, victim_key)
        replica = first_replica(mgr, 2)
        assert victim_key not in replica.database
        assert replica.partition_digest() == sites[2].partition_digest()

    def test_forwarded_delete_is_key_only_traffic(self):
        _sites, mgr = make_cluster()
        before = mgr.stats.tuples_transmitted
        msgs = mgr.stats.messages
        mgr.forward_delete(0, 0)
        assert mgr.stats.tuples_transmitted == before  # keys cost 0 (§3.2)
        assert mgr.stats.messages == msgs + 1  # but the message is real

    def test_a_refused_forwarded_write_is_not_billed(self):
        sites, mgr = make_cluster()
        standing = mgr.stats.snapshot()
        stored = next(iter(sites[1].database.values()))
        with pytest.raises(ValueError, match="already stored"):
            mgr.forward_insert(1, stored)
        with pytest.raises(KeyError):
            mgr.forward_delete(1, 9_999)
        assert mgr.stats.snapshot() == standing


class TestAntiEntropy:
    """The DIGEST + diff exchange every failback runs (:meth:`resync`)."""

    def test_converged_cluster_repairs_nothing(self):
        sites, mgr = make_cluster(factor=3)
        book = NetworkStats()
        for site in sites:
            for _host, replica in mgr.replicas[site.site_id]:
                assert not mgr.resync(site.site_id, replica, site, book)
        assert book.tuples_transmitted == 0

    def test_unforwarded_write_is_detected_and_repaired(self):
        sites, mgr = make_cluster()
        sites[0].insert_tuple(UncertainTuple(9002, (1.0, 1.0), 0.5))
        book = NetworkStats()
        assert mgr.resync(0, sites[0], first_replica(mgr, 0), book)
        assert not mgr.resync(0, sites[0], first_replica(mgr, 0), book)
        assert first_replica(mgr, 0).partition_digest() == sites[0].partition_digest()
        assert book.tuples_transmitted == 1

    def test_digest_exchange_is_zero_tuple_traffic(self):
        sites, mgr = make_cluster()
        book = NetworkStats()
        mgr.resync(0, first_replica(mgr, 0), sites[0], book)
        assert book.tuples_transmitted == 0
        assert book.by_kind.get("digest", 0) > 0

    def test_resync_primary_converges_a_stale_primary(self):
        sites, mgr = make_cluster()
        # The primary misses a write its replica saw (forwarded while
        # the primary was DOWN) AND holds a write the replica never got.
        mgr.forward_insert(1, UncertainTuple(9003, (2.0, 2.0), 0.6))
        stale_key = sorted(sites[1].database)[0]
        sites[1].delete_tuple(stale_key)
        replica = first_replica(mgr, 1)
        assert mgr.resync(1, replica, sites[1], NetworkStats())
        assert sites[1].partition_digest() == replica.partition_digest()
        assert 9003 in sites[1].database
        assert stale_key in sites[1].database  # replica still had it
