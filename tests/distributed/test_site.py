"""LocalSite: local skyline queue, probes, and feedback pruning."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prob_skyline import prob_skyline_sfs
from repro.core.probability import foreign_skyline_probability, skyline_probability
from repro.core.tuples import UncertainTuple
from repro.distributed.site import KERNELS, LocalSite, SiteConfig

from ..conftest import make_random_database


def make_site(n=120, seed=1, config=None, d=2):
    db = make_random_database(n, d, seed=seed, grid=10)
    return LocalSite(0, db, config=config), db


class TestPrepare:
    def test_queue_matches_local_probabilistic_skyline(self):
        site, db = make_site()
        size = site.prepare(0.3)
        expected = prob_skyline_sfs(db, 0.3)
        assert size == len(expected)

    def test_queue_sorted_descending(self):
        site, _ = make_site()
        site.prepare(0.3)
        probs = []
        while True:
            q = site.pop_representative()
            if q is None:
                break
            probs.append(q.local_probability)
        assert probs == sorted(probs, reverse=True)

    def test_prepare_resets_state(self):
        site, _ = make_site()
        first = site.prepare(0.3)
        site.pop_representative()
        assert site.prepare(0.3) == first

    def test_invalid_threshold(self):
        site, _ = make_site()
        with pytest.raises(ValueError):
            site.prepare(0.0)

    def test_unprepared_use_rejected(self):
        site, _ = make_site()
        with pytest.raises(RuntimeError, match="prepare"):
            site.pop_representative()

    def test_unindexed_site_equivalent(self):
        indexed, db = make_site(seed=2)
        plain = LocalSite(0, db, config=SiteConfig(kernel="columnar"))
        assert indexed.prepare(0.3) == plain.prepare(0.3)
        while True:
            a = indexed.pop_representative()
            b = plain.pop_representative()
            if a is None or b is None:
                assert a is None and b is None
                break
            assert a.key == b.key
            assert a.local_probability == pytest.approx(b.local_probability)


class TestPop:
    def test_quaternion_contents(self):
        site, db = make_site()
        site.prepare(0.3)
        q = site.pop_representative()
        assert q.site == 0
        assert q.key in {t.key for t in db}
        expected = skyline_probability(q.tuple, db)
        assert q.local_probability == pytest.approx(expected)

    def test_exhaustion(self):
        site, _ = make_site(n=10)
        site.prepare(0.3)
        pops = 0
        while site.pop_representative() is not None:
            pops += 1
        assert site.pop_representative() is None
        assert pops >= 1


class TestProbe:
    def test_probe_matches_eq9(self):
        site, db = make_site(seed=3)
        foreign = UncertainTuple(9999, (4.0, 4.0), 0.7)
        assert site.probe(foreign) == pytest.approx(
            foreign_skyline_probability(foreign, db)
        )

    def test_probe_unindexed_matches_indexed(self):
        indexed, db = make_site(seed=4)
        plain = LocalSite(0, db, config=SiteConfig(kernel="columnar"))
        foreign = UncertainTuple(9999, (5.0, 3.0), 0.7)
        assert indexed.probe(foreign) == pytest.approx(plain.probe(foreign))


class TestFeedbackPruning:
    def test_dominating_feedback_prunes_below_threshold(self):
        db = [
            UncertainTuple(0, (5.0, 5.0), 0.5),   # candidate, local prob 0.5
            UncertainTuple(1, (9.0, 9.0), 0.4),
        ]
        site = LocalSite(0, db)
        site.prepare(0.3)
        # Foreign feedback dominating (5,5) with high probability:
        # bound = 0.5 * (1 - 0.9) = 0.05 < 0.3 -> pruned.
        feedback = UncertainTuple(100, (1.0, 1.0), 0.9)
        reply = site.probe_and_prune(feedback)
        assert reply.pruned >= 1
        popped = {q.key for q in iter(site.pop_representative, None)}
        assert 0 not in popped

    def test_weak_feedback_does_not_prune(self):
        db = [UncertainTuple(0, (5.0, 5.0), 0.9)]
        site = LocalSite(0, db)
        site.prepare(0.3)
        feedback = UncertainTuple(100, (1.0, 1.0), 0.1)
        reply = site.probe_and_prune(feedback)
        assert reply.pruned == 0
        assert site.pop_representative().key == 0

    def test_feedback_accumulates(self):
        db = [UncertainTuple(0, (5.0, 5.0), 0.9)]
        site = LocalSite(0, db)
        site.prepare(0.3)
        # Two feedbacks, each factor 0.6: bound 0.9*0.36 = 0.324 >= 0.3,
        # then a third drops it below.
        site.apply_feedback(UncertainTuple(100, (1.0, 1.0), 0.4))
        site.apply_feedback(UncertainTuple(101, (1.0, 2.0), 0.4))
        assert site.queue_size() == 1
        pruned = site.apply_feedback(UncertainTuple(102, (2.0, 1.0), 0.4))
        assert pruned == 1
        assert site.queue_size() == 0

    def test_pruning_disabled_by_config(self):
        db = [UncertainTuple(0, (5.0, 5.0), 0.5)]
        site = LocalSite(0, db, config=SiteConfig(feedback_pruning=False))
        site.prepare(0.3)
        assert site.apply_feedback(UncertainTuple(100, (1.0, 1.0), 0.99)) == 0
        assert site.queue_size() == 1

    def test_pruned_tuples_still_answer_probes(self):
        """Pruned candidates leave the queue but stay in D_i."""
        db = [
            UncertainTuple(0, (2.0, 2.0), 0.9),
            UncertainTuple(1, (5.0, 5.0), 0.9),
        ]
        site = LocalSite(0, db)
        site.prepare(0.3)
        site.apply_feedback(UncertainTuple(100, (1.0, 1.0), 0.99))
        # Both candidates are gone from the queue...
        assert site.queue_size() == 0
        # ...but both still contribute to a probe for a foreign tuple.
        foreign = UncertainTuple(200, (6.0, 6.0), 0.5)
        assert site.probe(foreign) == pytest.approx(0.1 * 0.1)

    def test_non_dominated_candidates_untouched(self):
        db = [
            UncertainTuple(0, (0.0, 9.0), 0.9),
            UncertainTuple(1, (9.0, 0.0), 0.9),
        ]
        site = LocalSite(0, db)
        site.prepare(0.3)
        reply = site.probe_and_prune(UncertainTuple(100, (0.5, 0.5), 0.99))
        assert reply.pruned == 0
        assert site.queue_size() == 2


class TestLiveCount:
    """``queue_size()`` is a live count kept beside the alive mask; it
    must equal the mask's sum after every step that flips a bit."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_matches_the_alive_mask(self, kernel, seed):
        site, db = make_site(n=80, seed=seed % 50, config=SiteConfig(kernel=kernel))
        rng = random.Random(seed)
        site.prepare(rng.choice([0.2, 0.3, 0.5]))
        foreign = make_random_database(20, 2, seed=seed, grid=10, start_key=9000)
        for _ in range(40):
            step = rng.choice(["pop", "feedback", "fast_forward", "delete"])
            if step == "pop":
                site.pop_representative()
            elif step == "feedback":
                site.apply_feedback(rng.choice(foreign))
            elif step == "fast_forward":
                site.fast_forward(rng.sample([t.key for t in db], 3))
            elif site.database:
                site.delete_tuple(rng.choice(sorted(site.database)))
            assert site.queue_size() == int(site._q_alive.sum())


class TestShipping:
    def test_ship_all(self):
        site, db = make_site()
        assert {t.key for t in site.ship_all()} == {t.key for t in db}

    def test_ship_local_skyline_matches_prepare(self):
        site, db = make_site(seed=5)
        expected = site.prepare(0.3)
        burst = site.ship_local_skyline(0.3)
        assert len(burst) == expected
        probs = [q.local_probability for q in burst]
        assert probs == sorted(probs, reverse=True)


class TestMaintenanceHooks:
    def test_insert_and_delete_roundtrip(self):
        site, db = make_site(n=40, seed=6)
        t = UncertainTuple(5000, (3.0, 3.0), 0.5)
        site.insert_tuple(t)
        assert site.contains(5000)
        assert site.delete_tuple(5000) == t
        assert not site.contains(5000)

    def test_duplicate_insert_rejected(self):
        site, db = make_site(n=10, seed=7)
        with pytest.raises(ValueError):
            site.insert_tuple(db[0])

    def test_delete_missing_rejected(self):
        site, _ = make_site(n=10, seed=8)
        with pytest.raises(KeyError):
            site.delete_tuple(12345)

    def test_local_skyline_probability_after_mutations(self):
        site, db = make_site(n=50, seed=9)
        t = UncertainTuple(5000, (0.0, 0.0), 0.8)
        site.insert_tuple(t)
        assert site.local_skyline_probability(t) == pytest.approx(0.8)
        for s in db[:5]:
            site.delete_tuple(s.key)
        live = [x for x in db[5:]] + [t]
        for s in live[:10]:
            assert site.local_skyline_probability(s) == pytest.approx(
                skyline_probability(s, live)
            )

    def test_dominated_local_candidates(self):
        db = [
            UncertainTuple(0, (5.0, 5.0), 0.9),   # qualified, dominated by probe
            UncertainTuple(1, (6.0, 6.0), 0.05),  # dominated but unqualified
            UncertainTuple(2, (0.0, 9.0), 0.9),   # not dominated
        ]
        site = LocalSite(0, db)
        probe = UncertainTuple(100, (4.0, 4.0), 0.5)
        found = site.dominated_local_candidates(probe, 0.3)
        assert {t.key for t, _ in found} == {0}

    def test_replica_dominators(self):
        site, _ = make_site(n=10, seed=10)
        strong = UncertainTuple(7000, (0.0, 0.0), 0.9)
        weak = UncertainTuple(7001, (9.0, 9.0), 0.9)
        site.set_replica({7000: (strong, 0.9), 7001: (weak, 0.5)})
        target = UncertainTuple(8000, (5.0, 5.0), 0.5)
        assert [t.key for t in site.replica_dominators(target)] == [7000]
