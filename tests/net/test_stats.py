"""Bandwidth accounting and progressiveness logging."""

import re
from pathlib import Path

import pytest

from repro.net.message import MessageKind
from repro.net.stats import LatencyModel, NetworkStats, ProgressLog


class TestLatencyModel:
    def test_round_cost(self):
        model = LatencyModel(round_latency=0.01, per_tuple=0.001)
        assert model.round_cost(0) == pytest.approx(0.01)
        assert model.round_cost(10) == pytest.approx(0.02)


class TestNetworkStats:
    def test_direction_split(self):
        stats = NetworkStats()
        stats.bill(MessageKind.REPRESENTATIVE, "site-1", "server")
        stats.bill(MessageKind.FEEDBACK, "server", "site-2")
        stats.bill(MessageKind.FEEDBACK, "server", "site-3")
        assert stats.tuples_to_server == 1
        assert stats.tuples_from_server == 2
        assert stats.tuples_transmitted == 3
        assert stats.messages == 3

    def test_control_messages_free(self):
        stats = NetworkStats()
        stats.bill(MessageKind.PROBE_REPLY, "site-1", "server")
        assert stats.tuples_transmitted == 0
        assert stats.messages == 1

    def test_by_kind_breakdown(self):
        stats = NetworkStats()
        for _ in range(3):
            stats.bill(MessageKind.FEEDBACK, "server", "site-1")
        assert stats.by_kind["feedback"] == 3

    def test_simulated_clock(self):
        stats = NetworkStats(latency_model=LatencyModel(0.1, 0.01))
        stats.record_round(tuples_in_round=5)
        stats.record_round(tuples_in_round=0)
        assert stats.rounds == 2
        assert stats.simulated_time == pytest.approx(0.1 + 0.05 + 0.1)

    def test_snapshot(self):
        stats = NetworkStats()
        stats.bill(MessageKind.DATA, "site-1", "server")
        snap = stats.snapshot()
        assert snap["tuples_transmitted"] == 1
        assert snap["messages"] == 1
        assert snap["by_kind"] == {"data": 1}
        # A copy, not the live book.
        stats.bill(MessageKind.DATA, "site-1", "server")
        assert snap["by_kind"] == {"data": 1}


def _vocabulary_table():
    """``kind -> tuples`` cells of docs/protocol.md's message table."""
    doc = Path(__file__).resolve().parents[2] / "docs" / "protocol.md"
    lines = doc.read_text(encoding="utf-8").splitlines()
    start = lines.index("## Message vocabulary")
    rows = {}
    for line in lines[start + 1 :]:
        if line.startswith("## "):
            break
        match = re.match(r"\| `(\w+)` \|.*\| (\S+) \|$", line)
        if match:
            rows[match.group(1)] = match.group(2)
    return rows


class TestProtocolDoc:
    """docs/protocol.md's vocabulary table is the contract `bill` keeps."""

    def test_table_lists_every_message_kind(self):
        assert sorted(_vocabulary_table()) == sorted(k.name for k in MessageKind)

    def test_tuples_column_matches_the_billing_default(self):
        for name, cell in _vocabulary_table().items():
            stats = NetworkStats()
            stats.bill(MessageKind[name], "site-1", "server")
            bearing = cell in ("**1**", "**n**")
            assert stats.tuples_transmitted == (1 if bearing else 0), name


class TestProgressLog:
    def test_events_accumulate_with_indices(self):
        stats = NetworkStats()
        log = ProgressLog()
        stats.bill(MessageKind.FEEDBACK, "server", "site-1")
        log.report(key=5, probability=0.8, stats=stats)
        stats.bill(MessageKind.FEEDBACK, "server", "site-1")
        log.report(key=9, probability=0.6, stats=stats)
        assert len(log) == 2
        assert [e.result_index for e in log.events] == [1, 2]
        assert log.bandwidth_series() == [1, 2]

    def test_cpu_series_monotone(self):
        stats = NetworkStats()
        log = ProgressLog()
        for key in range(5):
            sum(range(10_000))  # burn a little CPU
            log.report(key=key, probability=0.5, stats=stats)
        series = log.cpu_series()
        assert series == sorted(series)
        assert all(s >= 0.0 for s in series)

    def test_restart_clock(self):
        log = ProgressLog()
        log.restart_clock()
        assert log.cpu_elapsed() < 1.0
