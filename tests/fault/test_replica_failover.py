"""Chaos × replication acceptance: rf=2 failover reproduces the fault-free run.

The replication contract is stronger than the Corollary-1 degraded
mode it replaces: with ``replication_factor=2`` and *any* single-site
fault schedule, the promoted buddy completes the in-flight round with
the same Eq.-9 factor at the same multiplication position, so the
query's result keys, probabilities, **emission order**, and
``coverage.exact`` all match an identical fault-free run — no
Corollary-1 upper bounds, no ``[buffered]`` top-k holds.

Also here: the §5.4 write-forwarding regression (a delete applied only
to the primary must not be resurrected by a failover), the rf=1
bit-identity guarantee (the replication layer is invisible until a
second copy actually exists), and the one convergence path that
recovery, failover and failback share — an aborted failback, a site
recovering before it ever finished PREPARE, a failback that repairs a
drifted primary, rf=3 walking its buddy list past a dead buddy, a
primary that fails over again after its failback, and a primary that
returns after its last buddy died (a recovery, not a failback) — also
after its own failback had aborted.
"""

import asyncio

import pytest

from repro.core.tuples import UncertainTuple
from repro.distributed.dsud import DSUD
from repro.distributed.edsud import EDSUD
from repro.distributed.query import build_sites, distributed_skyline
from repro.distributed.updates import IncrementalMaintainer
from repro.fault.injection import FaultyEndpoint
from repro.fault.retry import RetryPolicy
from repro.fault.schedule import FaultSchedule
from repro.net.message import MessageKind
from repro.net.transport import RecordingEndpoint
from repro.replica.manager import ReplicaManager

from ..conftest import make_random_database

Q = 0.25
SITES = 4
VICTIM = 1


def make_partitions(n=120, d=3, seed=11):
    db = make_random_database(n, d, seed=seed)
    return [db[i::SITES] for i in range(SITES)]


def fast_retries():
    return RetryPolicy(max_attempts=2, base_backoff=1e-4, max_backoff=1e-3)


def emission(result):
    """(key, probability) in the order tuples were released to the client."""
    return [(m.key, m.probability) for m in result.answer]


SCHEDULES = {
    "prepare-crash": lambda: FaultSchedule(seed=0).crash(VICTIM, at_call=1),
    "permanent-crash": lambda: FaultSchedule(seed=0).crash(VICTIM, at_call=5),
    "crash-recover": lambda: FaultSchedule(seed=0).crash(
        VICTIM, at_call=4, until_call=10
    ),
    "timeout-window": lambda: FaultSchedule(seed=0).timeout(
        VICTIM, at_call=4, until_call=7
    ),
}


@pytest.mark.parametrize("algorithm", ["dsud", "edsud"])
@pytest.mark.parametrize("schedule_name", sorted(SCHEDULES))
class TestFailoverExactness:
    @pytest.mark.parametrize("limit,batch_size", [(None, 1), (None, 3), (5, 1), (5, 5)])
    def test_rf2_single_site_fault_matches_fault_free_run(
        self, algorithm, schedule_name, limit, batch_size
    ):
        partitions = make_partitions()
        baseline = distributed_skyline(
            partitions, Q, algorithm=algorithm, limit=limit, batch_size=batch_size
        )
        chaotic = distributed_skyline(
            partitions, Q, algorithm=algorithm, limit=limit, batch_size=batch_size,
            fault_schedule=SCHEDULES[schedule_name](),
            retry_policy=fast_retries(),
            replication_factor=2,
        )
        assert emission(chaotic) == emission(baseline)
        coverage = chaotic.coverage
        assert coverage is not None
        assert coverage.complete  # exact — not Corollary-1 degraded
        assert not coverage.degraded
        assert not coverage.buffered


@pytest.mark.parametrize("algorithm", ["dsud", "edsud"])
class TestReplicationLayerInvisibleAtFactorOne:
    def test_rf1_chaos_books_and_coverage_bit_identical(self, algorithm):
        partitions = make_partitions()
        kwargs = dict(
            algorithm=algorithm,
            retry_policy=fast_retries(),
        )
        plain = distributed_skyline(
            partitions, Q,
            fault_schedule=FaultSchedule(seed=0).crash(VICTIM, at_call=5),
            **kwargs,
        )
        layered = distributed_skyline(
            partitions, Q,
            fault_schedule=FaultSchedule(seed=0).crash(VICTIM, at_call=5),
            replication_factor=1,
            **kwargs,
        )
        assert emission(layered) == emission(plain)
        assert layered.stats.snapshot() == plain.stats.snapshot()
        assert layered.coverage.degraded == plain.coverage.degraded
        assert layered.coverage.buffered == plain.coverage.buffered

    def test_rf2_healthy_query_books_identical_to_rf1(self, algorithm):
        partitions = make_partitions()
        plain = distributed_skyline(partitions, Q, algorithm=algorithm)
        replicated = distributed_skyline(
            partitions, Q, algorithm=algorithm, replication_factor=2
        )
        assert emission(replicated) == emission(plain)
        assert replicated.stats.snapshot() == plain.stats.snapshot()


class TestFailoverAccounting:
    def test_failover_traffic_lands_on_the_query_books(self):
        partitions = make_partitions()
        result = distributed_skyline(
            partitions, Q, algorithm="edsud",
            fault_schedule=FaultSchedule(seed=0).crash(VICTIM, at_call=5),
            retry_policy=fast_retries(),
            replication_factor=2,
        )
        assert result.stats.failovers == 1
        # Replaying the in-flight feedback onto the promoted buddy is
        # tuple-bearing traffic and must be visible in the ledger.
        assert result.stats.by_kind.get("failover_probe", 0) > 0

    def test_failback_resyncs_via_digest_exchange(self):
        partitions = make_partitions()
        result = distributed_skyline(
            partitions, Q, algorithm="edsud",
            fault_schedule=FaultSchedule(seed=0).crash(
                VICTIM, at_call=4, until_call=8
            ),
            retry_policy=fast_retries(),
            replication_factor=2,
        )
        assert result.stats.failovers == 1
        assert result.stats.failbacks == 1
        assert result.stats.by_kind.get("digest", 0) > 0

    def test_provisioning_never_bills_the_query(self):
        partitions = make_partitions()
        result = distributed_skyline(
            partitions, Q, algorithm="edsud", replication_factor=2
        )
        assert result.stats.by_kind.get("replica_sync", 0) == 0


class TestWriteForwardingRegression:
    """§5.4 updates must reach replicas, or failover corrupts the data."""

    def _cluster(self):
        partitions = make_partitions(seed=23)
        sites = build_sites(partitions)
        manager = ReplicaManager.provision(sites, 2)  # before any update
        maintainer = IncrementalMaintainer(sites, Q, replica_manager=manager)
        return sites, manager, maintainer

    def _chaos_query(self, sites, manager, at_call=3):
        schedule = FaultSchedule(seed=0).crash(VICTIM, at_call=at_call)
        wrapped = [FaultyEndpoint(s, schedule) for s in sites]
        return EDSUD(
            wrapped, Q,
            retry_policy=fast_retries(),
            replica_manager=manager,
        ).run()

    def _victim_member(self, maintainer):
        owned = {t.key for t in maintainer._site(VICTIM).database.values()}
        members = [m for m in maintainer.skyline().members if m.key in owned]
        assert members, "fixture needs a skyline member on the victim site"
        return max(members, key=lambda m: m.probability)

    def test_forwarded_writes_bill_the_standing_book_not_a_finished_query(self):
        sites, manager, maintainer = self._cluster()
        result = EDSUD(sites, Q, replica_manager=manager).run()
        books = (result.stats.messages, result.stats.tuples_transmitted,
                 dict(result.stats.by_kind))
        assert books[:2] == (232, 99)
        standing = manager.stats.messages, manager.stats.tuples_transmitted
        maintainer.insert(VICTIM, UncertainTuple(9100, (0.0, 0.0, 0.0), 0.99))
        maintainer.delete(VICTIM, 9100)
        assert (result.stats.messages, result.stats.tuples_transmitted,
                dict(result.stats.by_kind)) == books
        assert (manager.stats.messages, manager.stats.tuples_transmitted) == (
            standing[0] + 2, standing[1] + 1
        )

    def test_forwarded_delete_survives_failover(self):
        sites, manager, maintainer = self._cluster()
        doomed = self._victim_member(maintainer)
        maintainer.delete(VICTIM, doomed.key)
        result = self._chaos_query(sites, manager)
        assert result.stats.failovers == 1
        assert doomed.key not in {m.key for m in result.answer}

    def test_unforwarded_delete_is_resurrected_proving_the_bug_class(self):
        # The defect this PR closes: apply the same delete primary-only
        # (the pre-forwarding code path) and the promoted replica
        # happily re-reports the deleted tuple.
        sites, manager, maintainer = self._cluster()
        doomed = self._victim_member(maintainer)
        maintainer._site(VICTIM).delete_tuple(doomed.key)
        result = self._chaos_query(sites, manager)
        assert result.stats.failovers == 1
        assert doomed.key in {m.key for m in result.answer}

    def test_forwarded_insert_is_served_by_the_promoted_replica(self):
        sites, manager, maintainer = self._cluster()
        fresh = UncertainTuple(9100, (0.0, 0.0, 0.0), 0.99)
        maintainer.insert(VICTIM, fresh)
        assert fresh.key in {m.key for m in maintainer.skyline().members}
        result = self._chaos_query(sites, manager)
        assert result.stats.failovers == 1
        assert fresh.key in {m.key for m in result.answer}


@pytest.mark.parametrize("algorithm", ["dsud", "edsud"])
class TestConvergence:
    """Recovery, failover and failback are one replay of the broadcast log."""

    def test_aborted_failback_is_not_a_lost_site(self, algorithm):
        # The primary answers every liveness probe (``queue_size`` is
        # not gated) but faults on every convergence call, so its first
        # failback aborts while the buddy keeps serving — and is never
        # tried again in this query.
        partitions = make_partitions()
        baseline = distributed_skyline(partitions, Q, algorithm=algorithm)
        schedule = FaultSchedule(seed=0).crash(
            VICTIM, at_call=5,
            methods=["prepare", "pop_representative", "probe_and_prune",
                     "probe_and_prune_batch"],
        )
        result = distributed_skyline(
            partitions, Q, algorithm=algorithm,
            fault_schedule=schedule,
            retry_policy=fast_retries(),
            replication_factor=2,
        )
        # One failback attempt: one liveness probe, one resync digest
        # exchange, one aborted prepare.  The other CONTROL is the
        # failover's fast_forward, the other extra prepare the buddy's.
        by_kind = result.stats.by_kind
        assert by_kind["control"] == 2
        assert by_kind["digest"] == 2
        assert by_kind["prepare"] == SITES + 2
        assert result.stats.sites_lost == 1
        assert result.stats.failovers == 1
        assert result.stats.failbacks == 0
        hops = [t.split(" (")[0] for t in result.coverage.transitions]
        assert hops == [
            f"site-{VICTIM}: up -> suspect",
            f"site-{VICTIM}: suspect -> down",
            f"site-{VICTIM}: down -> recovering",
            f"site-{VICTIM}: recovering -> up",
        ]
        assert emission(result) == emission(baseline)

    def test_recovery_prepares_a_site_that_never_finished_prepare(self, algorithm):
        partitions = make_partitions()
        baseline = distributed_skyline(partitions, Q, algorithm=algorithm)
        # The victim refuses its PREPARE and the retry, then two dead
        # liveness probes while two broadcasts pass it by; the third
        # probe answers, and it must be prepared before their replay.
        schedule = FaultSchedule(seed=0).crash(VICTIM, at_call=1, until_call=5)
        log = []
        sites = [
            FaultyEndpoint(RecordingEndpoint(s, log) if s.site_id == VICTIM else s, schedule)
            for s in build_sites(partitions)
        ]
        coordinator = {"dsud": DSUD, "edsud": EDSUD}[algorithm]
        result = coordinator(sites, Q, retry_policy=fast_retries()).run()
        assert result.stats.sites_recovered == 1
        assert result.stats.by_kind["prepare"] == SITES + 1
        # The missed broadcasts were replayed as FEEDBACK, none lost.
        assert "failover_probe" not in result.stats.by_kind
        assert result.stats.by_kind["feedback"] == baseline.stats.by_kind["feedback"]
        methods = [call.method for call in log]
        assert methods[:4] == ["queue_size", "prepare", "probe_and_prune", "probe_and_prune"]
        assert result.coverage.complete
        assert emission(result) == emission(baseline)

    def test_rf3_fails_over_once_to_the_first_buddy(self, algorithm):
        # While the first buddy stays healthy it serves out the query:
        # the third copy is never needed, and the failover bills
        # exactly as at rf=2.
        partitions = make_partitions()
        baseline = distributed_skyline(partitions, Q, algorithm=algorithm)
        runs = {
            rf: distributed_skyline(
                partitions, Q, algorithm=algorithm,
                fault_schedule=FaultSchedule(seed=0).crash(VICTIM, at_call=5),
                retry_policy=fast_retries(),
                replication_factor=rf,
            )
            for rf in (2, 3)
        }
        assert runs[3].stats.failovers == 1
        assert runs[3].stats.by_kind == runs[2].stats.by_kind
        assert runs[3].stats.tuples_transmitted == runs[2].stats.tuples_transmitted
        assert emission(runs[3]) == emission(baseline)

    @pytest.mark.parametrize(
        "buddy_crash_at,primary_back_at,failovers,failbacks",
        [(1, None, 1, 0), (10, None, 2, 0), (10, 16, 2, 1)],
    )
    @pytest.mark.parametrize("pump", ["run", "asteps"])
    def test_rf3_walks_past_a_dead_first_buddy(
        self, algorithm, buddy_crash_at, primary_back_at, failovers, failbacks, pump
    ):
        # The first buddy crashes for good: on its promotion (call 1,
        # skipped within the one failover) or after serving for a while
        # (call 10, a second failover).  Either way the second buddy
        # takes over with the fault-free answer — and a primary that
        # comes back after both fails back, as the original primary.
        # The second buddy times out once while it converges: a
        # failover's calls are retried, second failover or not.
        partitions = make_partitions()
        baseline = distributed_skyline(partitions, Q, algorithm=algorithm)
        schedule = FaultSchedule(seed=0).crash(VICTIM, at_call=5, until_call=primary_back_at)
        sites = [FaultyEndpoint(s, schedule) for s in build_sites(partitions)]
        provisioned = ReplicaManager.provision(sites, 3)
        (host, first), (next_host, second) = provisioned.replicas[VICTIM]
        dying = FaultyEndpoint(
            first, FaultSchedule(seed=0).crash(VICTIM, at_call=buddy_crash_at)
        )
        blip = FaultyEndpoint(
            second, FaultSchedule(seed=0).timeout(VICTIM, at_call=2, until_call=3)
        )
        manager = ReplicaManager(
            {**provisioned.replicas, VICTIM: [(host, dying), (next_host, blip)]}
        )
        coordinator = {"dsud": DSUD, "edsud": EDSUD}[algorithm](
            sites, Q, retry_policy=fast_retries(), replica_manager=manager
        )
        if pump == "run":
            result = coordinator.run()
        else:
            async def drive():
                async for _ in coordinator.asteps():
                    pass
                return await coordinator.afinish()

            result = asyncio.run(drive())
        assert dying.injected and blip.injected
        assert result.stats.failovers == failovers
        assert result.stats.failbacks == failbacks
        assert result.coverage.complete
        assert emission(result) == emission(baseline)

    def test_rf2_fails_over_again_after_a_failback(self, algorithm):
        # The primary crashes, fails back, and crashes again: a failback
        # hands the buddy list back, so the same healthy buddy is
        # promoted a second time and the answer stays exact.
        partitions = make_partitions()
        baseline = distributed_skyline(partitions, Q, algorithm=algorithm)
        schedule = (
            FaultSchedule(seed=0)
            .crash(VICTIM, at_call=4, until_call=10)
            .crash(VICTIM, at_call=20)
        )
        result = distributed_skyline(
            partitions, Q, algorithm=algorithm,
            fault_schedule=schedule,
            retry_policy=fast_retries(),
            replication_factor=2,
        )
        assert result.stats.failovers == 2
        assert result.stats.failbacks == 1
        assert result.coverage.complete
        assert emission(result) == emission(baseline)

    @pytest.mark.parametrize("case", ["crash-window", "aborted-failback"])
    def test_primary_back_after_its_last_buddy_died_is_a_recovery(self, algorithm, case):
        # The only buddy dies while serving, so the logical site is DOWN
        # when its primary answers again: that return is one recovery
        # (the site is UP and fetched from at once), not a failback.
        # "crash-window": the primary's first ``prepare`` back (call 17)
        # times out, so a recovery must be retried.  "aborted-failback":
        # the primary answers probes but faults on convergence until call
        # 9, so its failback aborts and the buddy serves on until call 12.
        partitions = make_partitions()
        baseline = distributed_skyline(partitions, Q, algorithm=algorithm)
        if case == "crash-window":
            schedule = (
                FaultSchedule(seed=0)
                .crash(VICTIM, at_call=5, until_call=16)
                .timeout(VICTIM, at_call=17, until_call=18)
            )
            buddy_dies_at = 6
        else:
            schedule = FaultSchedule(seed=0).crash(
                VICTIM, at_call=5, until_call=9,
                methods=["prepare", "pop_representative", "probe_and_prune",
                         "probe_and_prune_batch"],
            )
            buddy_dies_at = 12
        sites = [FaultyEndpoint(s, schedule) for s in build_sites(partitions)]
        provisioned = ReplicaManager.provision(sites, 2)
        ((host, buddy),) = provisioned.replicas[VICTIM]
        dying = FaultyEndpoint(buddy, FaultSchedule(seed=0).crash(VICTIM, at_call=buddy_dies_at))
        manager = ReplicaManager({**provisioned.replicas, VICTIM: [(host, dying)]})
        result = {"dsud": DSUD, "edsud": EDSUD}[algorithm](
            sites, Q, retry_policy=fast_retries(), replica_manager=manager
        ).run()
        assert dying.injected
        assert sites[VICTIM].injected[-1].method == "prepare"
        assert result.stats.failovers == 1
        assert result.stats.failbacks == 0
        assert result.stats.sites_recovered == 1
        assert result.coverage.transitions[-2:] == (
            f"site-{VICTIM}: down -> recovering (primary answered)",
            f"site-{VICTIM}: recovering -> up (prepare succeeded)",
        )
        assert result.coverage.complete
        assert {m.key for m in result.answer} == {m.key for m in baseline.answer}

    def test_failback_repairs_a_drifted_primary(self, algorithm):
        sites = build_sites(make_partitions())
        manager = ReplicaManager.provision(sites, 2)
        replica = manager.replicas[VICTIM][0][1]
        # The primary loses a tuple its replica keeps.
        sites[VICTIM].delete_tuple(sorted(sites[VICTIM].database)[0])
        assert sites[VICTIM].partition_digest() != replica.partition_digest()
        schedule = FaultSchedule(seed=0).crash(VICTIM, at_call=4, until_call=8)
        coordinator = {"dsud": DSUD, "edsud": EDSUD}[algorithm](
            [FaultyEndpoint(s, schedule) for s in sites], Q,
            retry_policy=fast_retries(), replica_manager=manager,
        )
        syncs = []
        bill = coordinator.stats.bill

        def recording_bill(kind, sender, receiver, tuples=None):
            if kind is MessageKind.REPLICA_SYNC:
                syncs.append(tuples)
            bill(kind, sender, receiver, tuples)

        coordinator.stats.bill = recording_bill
        result = coordinator.run()
        assert result.stats.failovers == 1
        assert result.stats.failbacks == 1
        assert result.stats.by_kind["digest"] == 2
        assert syncs == [1]
        assert sites[VICTIM].partition_digest() == replica.partition_digest()
