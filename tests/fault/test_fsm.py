"""The site lifecycle FSM and cluster health books."""

import pytest

from repro.fault.fsm import ClusterHealth, SiteLifecycle, SiteState


class TestSiteLifecycle:
    def test_starts_up(self):
        lc = SiteLifecycle(3)
        assert lc.state is SiteState.UP
        assert lc.is_up and not lc.is_down

    def test_full_failure_recovery_cycle(self):
        lc = SiteLifecycle(0)
        lc.to(SiteState.SUSPECT, "rpc failed")
        lc.to(SiteState.DOWN, "retries exhausted")
        lc.to(SiteState.RECOVERING, "liveness probe answered")
        lc.to(SiteState.UP, "reintegrated")
        assert [t.new for t in lc.history] == [
            SiteState.SUSPECT,
            SiteState.DOWN,
            SiteState.RECOVERING,
            SiteState.UP,
        ]

    def test_suspect_can_return_to_up(self):
        lc = SiteLifecycle(0)
        lc.to(SiteState.SUSPECT, "one failed attempt")
        lc.to(SiteState.UP, "retry succeeded")
        assert lc.is_up

    def test_illegal_transitions_raise(self):
        lc = SiteLifecycle(0)
        with pytest.raises(ValueError, match="illegal transition"):
            lc.to(SiteState.RECOVERING)  # UP cannot jump to RECOVERING
        lc.to(SiteState.DOWN, "crash")
        with pytest.raises(ValueError, match="illegal transition"):
            lc.to(SiteState.SUSPECT)  # DOWN must pass through RECOVERING

    def test_same_state_is_a_noop(self):
        lc = SiteLifecycle(0)
        lc.to(SiteState.UP)
        assert lc.history == []

    def test_failure_counter_resets_on_up(self):
        lc = SiteLifecycle(0)
        lc.record_failure()
        lc.record_failure()
        assert lc.consecutive_failures == 2
        assert lc.state is SiteState.SUSPECT
        lc.to(SiteState.UP, "recovered")
        assert lc.consecutive_failures == 0

    def test_transitions_carry_reasons(self):
        lc = SiteLifecycle(7)
        lc.to(SiteState.DOWN, "injected crash")
        t = lc.history[0]
        assert t.site_id == 7
        assert t.reason == "injected crash"
        assert (t.old, t.new) == (SiteState.UP, SiteState.DOWN)


class TestClusterHealth:
    def test_all_up_initially(self):
        health = ClusterHealth([0, 1, 2])
        assert health.up_sites() == [0, 1, 2]
        assert health.down_sites() == []
        assert not health.any_down

    def test_mark_down_and_recover(self):
        health = ClusterHealth([0, 1, 2])
        health.mark_down(1, "crash")
        assert health.any_down
        assert health.down_sites() == [1]
        assert health.is_down(1)
        health.mark_recovering(1, "ping ok")
        assert health.down_sites() == []  # RECOVERING is not DOWN
        assert health.any_down  # …but not healthy either
        health.mark_up(1, "reintegrated")
        assert not health.any_down
        assert health.up_sites() == [0, 1, 2]

    def test_mark_down_is_idempotent(self):
        health = ClusterHealth([0])
        health.mark_down(0, "a")
        health.mark_down(0, "b")
        assert len(health.lifecycle(0).history) == 1

    def test_transitions_aggregate_across_sites(self):
        health = ClusterHealth([0, 1])
        health.mark_down(1, "x")
        health.record_failure(0)
        transitions = health.transitions()
        assert {t.site_id for t in transitions} == {0, 1}
        assert health.unhealthy == {0, 1}  # a SUSPECT site is not UP either
