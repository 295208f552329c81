"""Top-k probabilistic skyline (the ``limit=`` extension)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prob_skyline import prob_skyline_brute_force
from repro.core.tuples import UncertainTuple
from repro.distributed.topk import TopKBuffer
from repro.distributed.query import distributed_skyline
from repro.fault.coverage import TupleCoverage

from ..conftest import make_random_database


def make_coverage(t, bound, origin=0, missing=()):
    """A TupleCoverage in the state the coordinator's broadcast leaves it."""
    return TupleCoverage(
        key=t.key,
        origin=origin,
        tuple=t,
        upper_bound=bound,
        contributing={origin},
        missing=set(missing),
    )


def top_k_truth(db, q, k):
    """The k most probable qualified tuples, centrally computed."""
    answer = prob_skyline_brute_force(db, q)
    return answer.keys()[:k], answer.probabilities()


class TestTopKBuffer:
    def test_limit_validation(self):
        with pytest.raises(ValueError):
            TopKBuffer(0)

    def test_drains_in_probability_order(self):
        from repro.core.tuples import UncertainTuple

        buffer = TopKBuffer(3)
        for key, p in ((1, 0.4), (2, 0.9), (3, 0.6)):
            buffer.offer(UncertainTuple(key, (0.0,), 0.5), p)
        emitted = []
        done = buffer.drain(0.0, lambda t, p: emitted.append((t.key, p)))
        assert done
        assert [k for k, _ in emitted] == [2, 3, 1]

    def test_cap_blocks_uncertain_emissions(self):
        from repro.core.tuples import UncertainTuple

        buffer = TopKBuffer(2)
        buffer.offer(UncertainTuple(1, (0.0,), 0.5), 0.6)
        emitted = []
        done = buffer.drain(0.7, lambda t, p: emitted.append(t.key))
        assert not done and emitted == []
        done = buffer.drain(0.5, lambda t, p: emitted.append(t.key))
        assert not done and emitted == [1]

    def test_limit_one_stops_after_first_emission(self):
        from repro.core.tuples import UncertainTuple

        buffer = TopKBuffer(1)
        buffer.offer(UncertainTuple(1, (0.0,), 0.5), 0.9)
        buffer.offer(UncertainTuple(2, (0.0,), 0.5), 0.8)
        emitted = []
        done = buffer.drain(0.0, lambda t, p: emitted.append(t.key))
        assert done and emitted == [1]
        # further drains are inert: the limit has been hit
        assert buffer.drain(0.0, lambda t, p: emitted.append(t.key))
        assert emitted == [1]

    def test_probability_ties_break_on_key(self):
        from repro.core.tuples import UncertainTuple

        buffer = TopKBuffer(3)
        for key in (9, 3, 6):
            buffer.offer(UncertainTuple(key, (0.0,), 0.5), 0.7)
        emitted = []
        buffer.drain(0.0, lambda t, p: emitted.append(t.key))
        # equal probabilities emit in deterministic key order
        assert emitted == [3, 6, 9]

    def test_flush_after_partial_drain_releases_the_rest(self):
        from repro.core.tuples import UncertainTuple

        buffer = TopKBuffer(5)
        for key, p in ((1, 0.9), (2, 0.5), (3, 0.3)):
            buffer.offer(UncertainTuple(key, (0.0,), 0.5), p)
        emitted = []
        done = buffer.drain(0.6, lambda t, p: emitted.append(t.key))
        assert not done and emitted == [1]  # 0.5 and 0.3 held back
        buffer.flush(lambda t, p: emitted.append(t.key))
        assert emitted == [1, 2, 3]
        assert buffer.emitted == 3

    def test_offer_bounds_memory_to_the_limit(self):
        # A query that resolves many qualified tuples before the first
        # drain must not hold all of them: exact entries beyond the
        # limit can never be emitted and are trimmed on offer.
        buffer = TopKBuffer(3)
        for key in range(100):
            buffer.offer(UncertainTuple(key, (0.0,), 0.5), 1.0 - key / 200.0)
        assert len(buffer) == 3
        emitted = []
        buffer.drain(0.0, lambda t, p: emitted.append(t.key))
        # trimming never changes the emission semantics
        assert emitted == [0, 1, 2]

    def test_trim_keeps_inexact_entries(self):
        # An inexact bound may tighten below the tail entry, so nothing
        # may be dropped while a leading entry is still inexact.
        buffer = TopKBuffer(1)
        t1 = UncertainTuple(1, (0.0,), 0.5)
        buffer.offer(t1, 0.9, coverage=make_coverage(t1, 0.9, missing={2}))
        for key in (5, 6, 7):
            buffer.offer(UncertainTuple(key, (0.0,), 0.5), 0.5)
        assert len(buffer) == 4  # everything retained

    def test_tie_with_the_cap_is_held_not_emitted(self):
        # An unresolved candidate could still tie at exactly the cap;
        # emission requires a strict win (documented tie rule).
        buffer = TopKBuffer(2)
        buffer.offer(UncertainTuple(1, (0.0,), 0.5), 0.6)
        emitted = []
        assert not buffer.drain(0.6, lambda t, p: emitted.append(t.key))
        assert emitted == []
        assert buffer.drain(0.59, lambda t, p: emitted.append(t.key)) is False
        assert emitted == [1]

    def test_cross_site_key_collision_does_not_raise(self):
        # Two sites can surface tuples sharing a key; the old heap fell
        # through to comparing UncertainTuple objects (TypeError).  The
        # (key, origin) namespace keeps the order total + deterministic.
        ta = UncertainTuple(7, (0.0,), 0.5)
        tb = UncertainTuple(7, (1.0,), 0.5)
        buffer = TopKBuffer(3)
        buffer.offer(ta, 0.5, coverage=make_coverage(ta, 0.5, origin=2))
        buffer.offer(tb, 0.5, coverage=make_coverage(tb, 0.5, origin=1))
        emitted = []
        buffer.drain(0.0, lambda t, p: emitted.append((t.key, t.values)))
        assert emitted == [(7, (1.0,)), (7, (0.0,))]  # origin order on ties

    def test_inexact_entries_never_drain(self):
        # A probability that is only a Corollary-1 upper bound (site
        # DOWN during the broadcast) must wait for reintegration.
        t1 = UncertainTuple(1, (0.0,), 0.5)
        cov = make_coverage(t1, 0.9, missing={2})
        buffer = TopKBuffer(2)
        buffer.offer(t1, 0.9, coverage=cov)
        emitted = []
        assert not buffer.drain(0.0, lambda t, p: emitted.append(t.key))
        assert emitted == [] and buffer.inexact_entries() != []
        # the recovered site's re-probe lands in the shared coverage
        cov.upper_bound *= 0.8
        cov.missing.discard(2)
        cov.contributing.add(2)
        assert not buffer.drain(0.0, lambda t, p: emitted.append((t.key, p)))
        assert emitted == [(1, pytest.approx(0.72))]

    def test_exact_entry_waits_behind_a_larger_inexact_bound(self):
        # An exact 0.8 cannot be released while a buffered bound of 0.9
        # could still resolve above it — emission order would be wrong.
        t1 = UncertainTuple(1, (0.0,), 0.5)
        t2 = UncertainTuple(2, (1.0,), 0.5)
        cov = make_coverage(t2, 0.9, missing={2})
        buffer = TopKBuffer(2)
        buffer.offer(t1, 0.8)
        buffer.offer(t2, 0.9, coverage=cov)
        emitted = []
        assert not buffer.drain(0.0, lambda t, p: emitted.append(t.key))
        assert emitted == []
        cov.upper_bound = 0.5  # re-probe proves t2 below t1
        cov.missing.clear()
        assert buffer.drain(0.0, lambda t, p: emitted.append(t.key))
        assert emitted == [1, 2]

    def test_retracted_buffered_entry_never_emits(self):
        # Tightening below q retracts *buffered* state — the tuple was
        # never reported, so the progressive guarantee holds.
        t1 = UncertainTuple(1, (0.0,), 0.5)
        cov = make_coverage(t1, 0.8, missing={2})
        buffer = TopKBuffer(1, threshold=0.3)
        buffer.offer(t1, 0.8, coverage=cov)
        cov.upper_bound = 0.2
        cov.missing.clear()
        emitted = []
        buffer.flush(lambda t, p: emitted.append(t.key))
        assert emitted == [] and len(buffer) == 0

    def test_flush_emits_inexact_entries_at_their_bound(self):
        # Natural termination with a site permanently DOWN: degraded
        # superset semantics — emit at the Corollary-1 bound, and leave
        # beyond-limit entries pending for the coverage report.
        t1 = UncertainTuple(1, (0.0,), 0.5)
        t2 = UncertainTuple(2, (1.0,), 0.5)
        buffer = TopKBuffer(1)
        buffer.offer(t1, 0.7, coverage=make_coverage(t1, 0.7, missing={2}))
        buffer.offer(t2, 0.6, coverage=make_coverage(t2, 0.6, missing={2}))
        emitted = []
        assert buffer.flush(lambda t, p: emitted.append((t.key, p)))
        assert emitted == [(1, 0.7)]
        assert [e.tuple.key for e in buffer.inexact_entries()] == [2]


@pytest.mark.parametrize("algorithm", ["dsud", "edsud"])
class TestTopKQueries:
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_returns_k_most_probable(self, algorithm, k):
        db = make_random_database(300, 2, seed=1, grid=10)
        partitions = [db[i::4] for i in range(4)]
        want_keys, probs = top_k_truth(db, 0.3, k)
        result = distributed_skyline(partitions, 0.3, algorithm=algorithm, limit=k)
        assert result.answer.keys() == want_keys
        for key, p in result.answer.probabilities().items():
            assert p == pytest.approx(probs[key])

    def test_emission_order_is_descending_probability(self, algorithm):
        db = make_random_database(250, 2, seed=2, grid=10)
        partitions = [db[i::3] for i in range(3)]
        result = distributed_skyline(partitions, 0.3, algorithm=algorithm, limit=5)
        emitted = [e.global_probability for e in result.progress.events]
        assert emitted == sorted(emitted, reverse=True)

    def test_limit_larger_than_answer_returns_everything(self, algorithm):
        db = make_random_database(150, 2, seed=3, grid=10)
        partitions = [db[i::3] for i in range(3)]
        full = distributed_skyline(partitions, 0.3, algorithm=algorithm)
        limited = distributed_skyline(
            partitions, 0.3, algorithm=algorithm, limit=10_000
        )
        assert limited.answer.agrees_with(full.answer, tol=1e-9)

    def test_small_limit_saves_bandwidth(self, algorithm):
        db = make_random_database(600, 3, seed=4, grid=12)
        partitions = [db[i::5] for i in range(5)]
        full = distributed_skyline(partitions, 0.2, algorithm=algorithm)
        assert full.result_count > 5
        top1 = distributed_skyline(partitions, 0.2, algorithm=algorithm, limit=1)
        assert top1.bandwidth < full.bandwidth

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_topk_property(self, algorithm, seed, k):
        db = make_random_database(80, 2, seed=seed, grid=6)
        partitions = [db[i::3] for i in range(3)]
        want_keys, probs = top_k_truth(db, 0.3, k)
        result = distributed_skyline(partitions, 0.3, algorithm=algorithm, limit=k)
        assert result.answer.keys() == want_keys


class TestTopKValidation:
    @pytest.mark.parametrize("algorithm", ["ship-all", "naive"])
    def test_bulk_algorithms_reject_limit(self, algorithm):
        with pytest.raises(ValueError, match="progressive"):
            distributed_skyline([[]], 0.3, algorithm=algorithm, limit=3)
