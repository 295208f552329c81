"""THE correctness property: every distributed algorithm returns exactly
the centralized probabilistic skyline of the unified database, for any
partitioning, any threshold, any preference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import Preference
from repro.core.prob_skyline import prob_skyline_brute_force
from repro.distributed.edsud import EDSUDConfig
from repro.distributed.progressive import ProgressiveCoordinator
from repro.distributed.query import build_sites, distributed_skyline
from repro.distributed.site import SiteConfig

from ..conftest import make_random_database

ALGORITHMS = ("ship-all", "naive", "dsud", "edsud")


def check_equivalence(db, m, q, preference=None, site_config=None, **kwargs):
    partitions = [db[i::m] for i in range(m)]
    central = prob_skyline_brute_force(db, q, preference)
    for algorithm in ALGORITHMS:
        result = distributed_skyline(
            partitions, q, algorithm=algorithm, preference=preference,
            site_config=site_config, **kwargs,
        )
        assert result.answer.agrees_with(central, tol=1e-9), (
            f"{algorithm} diverged: got {sorted(result.answer.keys())}, "
            f"want {sorted(central.keys())} (q={q}, m={m})"
        )


class TestEquivalenceProperty:
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        n=st.integers(min_value=0, max_value=80),
        m=st.integers(min_value=1, max_value=6),
        q=st.sampled_from([0.1, 0.3, 0.5, 0.8, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_instances_2d(self, seed, n, m, q):
        db = make_random_database(n, 2, seed=seed, grid=6)
        check_equivalence(db, m, q)

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        m=st.integers(min_value=1, max_value=5),
        q=st.sampled_from([0.2, 0.4, 0.7]),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_instances_4d(self, seed, m, q):
        db = make_random_database(50, 4, seed=seed, grid=5)
        check_equivalence(db, m, q)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=15, deadline=None)
    def test_with_mixed_preference(self, seed):
        db = make_random_database(60, 3, seed=seed, grid=6)
        pref = Preference.of("min,max,min")
        check_equivalence(db, 3, 0.3, preference=pref)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=15, deadline=None)
    def test_without_index(self, seed):
        db = make_random_database(60, 2, seed=seed, grid=6)
        check_equivalence(db, 3, 0.3, site_config=SiteConfig(kernel="columnar"))

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        expunge=st.booleans(),
        eager=st.booleans(),
        reuse=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_edsud_config_space(self, seed, expunge, eager, reuse):
        db = make_random_database(70, 2, seed=seed, grid=6)
        partitions = [db[i::4] for i in range(4)]
        central = prob_skyline_brute_force(db, 0.3)
        result = distributed_skyline(
            partitions,
            0.3,
            algorithm="edsud",
            edsud_config=EDSUDConfig(
                server_expunge=expunge,
                eager_bound_refresh=eager,
                reuse_probe_factors=reuse,
            ),
        )
        assert result.answer.agrees_with(central, tol=1e-9)


class DrawnOrder(ProgressiveCoordinator):
    """An ordering policy with no opinion: qualified heads in a drawn order."""

    algorithm = "drawn-order"

    def __init__(self, sites, threshold, batch_size, rng):
        super().__init__(sites, threshold, batch_size=batch_size)
        self.rng = rng
        self.held = []

    def _admit(self, quaternion):
        self.held.append(quaternion)

    def _select(self):
        live = [h for h in self.held if h.local_probability >= self.threshold]
        self.rng.shuffle(live)
        for head in live[: self.batch_size]:
            self.held.remove(head)
        return live[: self.batch_size]

    def _remaining_cap(self):
        return max((h.local_probability for h in self.held), default=0.0)

    def _holds(self, site_id):
        return any(h.site == site_id for h in self.held)


class TestAnswersDoNotDependOnBroadcastOrder:
    """Lemma 1, against ground truth: whatever the policy picks next, the
    progressive loop returns the Eq.-3/Eq.-10 skyline of the union."""

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        n=st.integers(min_value=0, max_value=40),
        q=st.sampled_from([0.1, 0.3, 0.6]),
        batch_size=st.sampled_from([1, 3]),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_order_returns_the_brute_force_answer(self, seed, n, q, batch_size, rng):
        db = make_random_database(n, 2, seed=seed, grid=6)

        def dominates(a, b):
            return a.values != b.values and all(x <= y for x, y in zip(a.values, b.values))

        truth = {}
        for t in db:
            p = t.probability
            for other in db:
                if dominates(other, t):
                    p *= 1.0 - other.probability
            if p >= q:
                truth[t.key] = p

        coordinator = DrawnOrder(build_sites([db[i::3] for i in range(3)]), q, batch_size, rng)
        answer = {m.key: m.probability for m in coordinator.run().answer}
        assert answer.keys() == truth.keys()
        for key, p in truth.items():
            assert abs(answer[key] - p) <= 1e-12


class TestAdversarialInstances:
    def test_all_probability_one(self):
        """Certain data: must reduce to the conventional distributed skyline."""
        from repro.core.tuples import UncertainTuple

        db = [
            UncertainTuple(i, (float(i % 7), float((i * 3) % 7)), 1.0)
            for i in range(40)
        ]
        check_equivalence(db, 4, 1.0)
        check_equivalence(db, 4, 0.5)

    def test_all_identical_points(self):
        from repro.core.tuples import UncertainTuple

        db = [UncertainTuple(i, (1.0, 1.0), 0.6) for i in range(12)]
        check_equivalence(db, 3, 0.3)

    def test_single_tuple(self):
        from repro.core.tuples import UncertainTuple

        db = [UncertainTuple(0, (1.0, 1.0), 0.4)]
        check_equivalence(db, 3, 0.3)
        check_equivalence(db, 3, 0.5)

    def test_total_order_chain(self):
        """A strict dominance chain: only the head can qualify strongly."""
        from repro.core.tuples import UncertainTuple

        db = [UncertainTuple(i, (float(i), float(i)), 0.9) for i in range(30)]
        check_equivalence(db, 5, 0.3)

    def test_skewed_partitioning(self):
        """One site owns the entire skyline region."""
        from repro.data.partition import partition_range
        from repro.core.prob_skyline import prob_skyline_brute_force

        db = make_random_database(200, 2, seed=77, grid=10)
        partitions = partition_range(db, 4, dim=0)
        central = prob_skyline_brute_force(db, 0.3)
        for algorithm in ALGORITHMS:
            result = distributed_skyline(partitions, 0.3, algorithm=algorithm)
            assert result.answer.agrees_with(central, tol=1e-9)

    def test_threshold_above_every_probability(self):
        from repro.core.tuples import UncertainTuple

        db = [UncertainTuple(i, (float(i), float(-i)), 0.2) for i in range(20)]
        check_equivalence(db, 4, 0.9)
