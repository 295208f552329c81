"""Batched probe rounds: accounting, equivalence, and wire transport.

Contract under test:

* ``batch_size=1`` (the default) is the pre-batching protocol — same
  RPC trace, same message books, no batch RPC ever issued (pinned
  bit-for-bit against the pre-merge coordinator by
  ``test_golden_ledger``).
* ``batch_size=k`` produces the same answer (broadcasts resolve exact
  probabilities regardless of grouping) in no more — and on real
  workloads strictly fewer — coordination rounds.
* A batched FEEDBACK message bears as many tuples as it carries
  (the §3.2 metric counts tuples, not envelopes).
* The batch RPC crosses the TCP transport unchanged.
"""

import pytest

from repro.distributed.dsud import DSUD
from repro.distributed.edsud import EDSUD
from repro.distributed.query import build_sites, distributed_skyline
from repro.net.message import MessageKind
from repro.net.sockets import host_sites
from repro.net.transport import RecordingEndpoint

from ..conftest import make_random_database, query_over_tcp

Q = 0.3
SITES = 3


def make_partitions(n=240, d=2, seed=1, grid=10):
    db = make_random_database(n, d, seed=seed, grid=grid)
    return [db[i::SITES] for i in range(SITES)]


@pytest.mark.parametrize("algorithm", ["dsud", "edsud"])
class TestBatchSizeOne:
    def test_default_equals_explicit_batch_size_one(self, algorithm):
        partitions = make_partitions()
        default = distributed_skyline(partitions, Q, algorithm=algorithm)
        explicit = distributed_skyline(
            partitions, Q, algorithm=algorithm, batch_size=1
        )
        assert explicit.answer.agrees_with(default.answer, tol=0.0)
        assert explicit.stats.messages == default.stats.messages
        assert explicit.stats.by_kind == default.stats.by_kind
        assert explicit.stats.tuples_transmitted == default.stats.tuples_transmitted
        assert explicit.stats.rounds == default.stats.rounds
        assert explicit.iterations == default.iterations

    def test_batch_size_one_never_issues_the_batch_rpc(self, algorithm):
        partitions = make_partitions(n=120)
        log = []
        sites = [
            RecordingEndpoint(s, log) for s in build_sites(partitions)
        ]
        cls = DSUD if algorithm == "dsud" else EDSUD
        cls(sites, Q, batch_size=1).run()
        methods = {record.method for record in log}
        assert "probe_and_prune" in methods
        assert "probe_and_prune_batch" not in methods


@pytest.mark.parametrize("algorithm", ["dsud", "edsud"])
class TestBatchedRounds:
    @pytest.mark.parametrize("batch_size", [2, 4])
    def test_same_answer_fewer_rounds(self, algorithm, batch_size):
        partitions = make_partitions()
        unbatched = distributed_skyline(partitions, Q, algorithm=algorithm)
        batched = distributed_skyline(
            partitions, Q, algorithm=algorithm, batch_size=batch_size
        )
        assert batched.answer.agrees_with(unbatched.answer, tol=1e-9)
        assert batched.stats.rounds < unbatched.stats.rounds
        assert batched.stats.by_kind[MessageKind.FEEDBACK.value] < (
            unbatched.stats.by_kind[MessageKind.FEEDBACK.value]
        )

    def test_batch_rpc_actually_used(self, algorithm):
        partitions = make_partitions()
        log = []
        sites = [
            RecordingEndpoint(s, log) for s in build_sites(partitions)
        ]
        cls = DSUD if algorithm == "dsud" else EDSUD
        cls(sites, Q, batch_size=3).run()
        assert any(r.method == "probe_and_prune_batch" for r in log)
        # A batched call never carries a site's own tuple back to it.
        for record in log:
            if record.method != "probe_and_prune_batch":
                continue
            factors = record.result.factors
            assert len(factors) == len(record.args[0])


class TestBatchAccounting:
    def test_feedback_bears_one_tuple_per_batched_quaternion(self):
        partitions = make_partitions(n=90)
        sites = build_sites(partitions)
        coordinator = DSUD(sites, Q, batch_size=2)
        coordinator._drive(coordinator._prepare_sites_script())
        heads = [site.pop_representative() for site in sites]
        quaternions = [q for q in heads[:2] if q is not None]
        assert len(quaternions) == 2
        before_msgs = dict(coordinator.stats.by_kind)
        before_tuples = coordinator.stats.tuples_transmitted
        replies = coordinator._drive(
            coordinator._broadcast_probes_batch_script(quaternions)
        )
        # Three sites, two quaternions from sites 0 and 1: sites 0 and
        # 1 each probe the other's tuple (1 each), site 2 probes both.
        feedback_msgs = (
            coordinator.stats.by_kind[MessageKind.FEEDBACK.value]
            - before_msgs.get(MessageKind.FEEDBACK.value, 0)
        )
        assert feedback_msgs == SITES
        assert coordinator.stats.tuples_transmitted - before_tuples == 4
        # Every (quaternion, foreign site) pair contributed a factor.
        assert len(replies) == 4


class TestBatchOverTcp:
    def test_batched_query_over_sockets_matches_in_process(self):
        partitions = make_partitions(n=120)
        in_process = distributed_skyline(
            partitions, Q, algorithm="edsud", batch_size=3
        )
        with host_sites(partitions) as cluster:
            over_wire = query_over_tcp(
                cluster.addresses, lambda proxies: EDSUD(proxies, Q, batch_size=3)
            )
        assert over_wire.answer.agrees_with(in_process.answer, tol=1e-9)
        assert over_wire.stats.messages == in_process.stats.messages
        assert over_wire.stats.tuples_transmitted == (
            in_process.stats.tuples_transmitted
        )
