"""The script engine stands alone: no ``Coordinator``, two pumps, one verdict.

``repro.distributed.engine`` is the seam later work builds on (the
stream coordinator's per-epoch calls, a virtual scheduler over
``_waves``), so what it promises is pinned without the protocol on top:
a toy script over fake endpoints gets the same verdicts, retry books
and FSM journal from the blocking and the awaiting pump, and the module
imports nothing of the protocol it carries.
"""

from __future__ import annotations

import ast
import asyncio
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.distributed import engine
from repro.distributed.engine import ScriptEngine, _Fanout, _Rpc
from repro.fault.errors import SiteCrashed
from repro.fault.fsm import ClusterHealth
from repro.fault.retry import RetryPolicy
from repro.net.stats import NetworkStats

TWO_ATTEMPTS = RetryPolicy(max_attempts=2, base_backoff=0.0, jitter=0.0)


class SyncEndpoint:
    site_id = 0

    def echo(self, value: int) -> int:
        return value * 10


class AwaitableEndpoint:
    """Awaitable wherever a loop is running; the blocking pump gets the value."""

    site_id = 1

    def echo(self, value: int) -> Any:
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return value * 10
        return self._echo(value)

    async def _echo(self, value: int) -> int:
        await asyncio.sleep(0)
        return value * 10


class FlakyOnceEndpoint:
    site_id = 2

    def __init__(self) -> None:
        self.calls = 0

    def echo(self, value: int) -> int:
        self.calls += 1
        if self.calls == 1:
            raise SiteCrashed(self.site_id, "injected")
        return value * 10


class DeadEndpoint:
    site_id = 3

    def echo(self, value: int) -> int:
        raise SiteCrashed(self.site_id, "gone")


def toy(out: List[Any]):
    sync, awaitable, flaky = SyncEndpoint(), AwaitableEndpoint(), FlakyOnceEndpoint()
    out.append((yield _Rpc(sync, "echo", (1,))))
    flaky_lane = (_Rpc(flaky, "echo", (3,)), _Rpc(flaky, "echo", (4,)))
    out.append((yield _Fanout(((_Rpc(awaitable, "echo", (2,)),), flaky_lane))))
    yield  # a scheduling point: both pumps surface exactly this one


def dead_lane(out: List[Any]):
    dead = DeadEndpoint()
    out.append((yield _Fanout(((_Rpc(dead, "echo", (1,)), _Rpc(dead, "echo", (2,))),))))
    out.append((yield _Rpc(dead, "echo", (3,), raw=True)))


class EchoAt:
    def __init__(self, site_id: int) -> None:
        self.site_id = site_id

    def echo(self, value: int) -> int:
        return value * 10


def single_attempt(out: List[Any]):
    """No retry policy; sites 0 and 2 start RECOVERING, site 1 SUSPECT."""
    suspect, recovering = EchoAt(1), EchoAt(2)
    out.append((yield _Rpc(EchoAt(0), "echo", (9,), raw=True)))
    lanes = ((_Rpc(suspect, "echo", (1,)),), (_Rpc(recovering, "echo", (2,)),))
    out.append((yield _Fanout(lanes)))
    out.append((yield _Rpc(DeadEndpoint(), "echo", (3,))))


def troubled_cluster() -> ClusterHealth:
    health = ClusterHealth(range(4))
    health.record_failure(1)
    for site_id in (0, 2):
        health.mark_down(site_id, "crash")
        health.mark_recovering(site_id, "ping")
    return health


def run_blocking(script, policy=TWO_ATTEMPTS, health=lambda: ClusterHealth(range(4))):
    runtime = ScriptEngine(NetworkStats(), health(), policy)
    out: List[Any] = []
    points = sum(1 for _ in runtime._pump(script(out)))
    return books(runtime, out, points)


def run_awaiting(script, policy=TWO_ATTEMPTS, health=lambda: ClusterHealth(range(4))):
    runtime = ScriptEngine(NetworkStats(), health(), policy)
    out: List[Any] = []

    async def main() -> int:
        points = 0
        async for _ in runtime._apump(script(out)):
            points += 1
        return points

    return books(runtime, out, asyncio.run(main()))


def books(runtime: ScriptEngine, out: List[Any], points: int) -> Dict[str, Any]:
    return {
        "verdicts": out,
        "points": points,
        "calls": runtime.stats.rpc_calls,
        "retries": runtime.stats.rpc_retries,
        "failures": runtime.stats.rpc_failures,
        "lost": runtime.stats.sites_lost,
        "journal": [
            (t.site_id, t.old.value, t.new.value, t.reason)
            for t in runtime.health.transitions()
        ],
    }


class TestEngineWithoutACoordinator:
    def test_both_pumps_give_the_toy_script_the_same_verdicts_and_books(self):
        blocking, awaiting = run_blocking(toy), run_awaiting(toy)
        assert blocking == awaiting
        assert blocking["verdicts"] == [
            (True, 10),
            [[(True, 20)], [(True, 30), (True, 40)]],
        ]
        assert blocking["points"] == 1
        assert (blocking["calls"], blocking["retries"], blocking["failures"]) == (4, 1, 0)
        assert [(s, new) for s, _old, new, _why in blocking["journal"]] == [
            (2, "suspect"),
            (2, "up"),
        ]

    def test_a_terminal_fault_is_a_verdict_not_an_exception(self):
        blocking, awaiting = run_blocking(dead_lane), run_awaiting(dead_lane)
        assert blocking == awaiting
        # The lane stops at its first failed call; the raw probe that
        # follows touches neither the books nor the FSM.
        assert blocking["verdicts"] == [[[(False, None)]], (False, None)]
        assert (blocking["calls"], blocking["retries"], blocking["failures"]) == (1, 1, 1)
        assert blocking["lost"] == 1
        assert blocking["journal"][-1][:3] == (3, "suspect", "down")

    def test_the_inlined_funnel_without_a_policy(self):
        blocking = run_blocking(single_attempt, None, troubled_cluster)
        assert blocking == run_awaiting(single_attempt, None, troubled_cluster)
        assert blocking["verdicts"] == [(True, 90), [[(True, 10)], [(True, 20)]], (False, None)]
        # The fault is the one failed call of three timed ones, unretried;
        # the raw probe is neither timed nor journalled: site 0 stays
        # RECOVERING although it answered.
        assert (blocking["calls"], blocking["retries"], blocking["failures"]) == (3, 0, 1)
        assert blocking["lost"] == 1
        journal = [(s, old, new) for s, old, new, _why in blocking["journal"]]
        assert journal == [
            (0, "up", "down"),
            (0, "down", "recovering"),
            (1, "up", "suspect"),
            (1, "suspect", "up"),
            (2, "up", "down"),
            (2, "down", "recovering"),
            (2, "recovering", "up"),
            (3, "up", "suspect"),
            (3, "suspect", "down"),
        ]

    def test_drive_returns_the_scripts_value(self):
        def script():
            ok, value = yield _Rpc(SyncEndpoint(), "echo", (7,))
            return value if ok else None

        runtime = ScriptEngine(NetworkStats(), ClusterHealth([0]))
        assert runtime._drive(script()) == 70

    def test_an_application_error_is_not_swallowed(self):
        class Broken:
            site_id = 0

            def echo(self, value: int) -> int:
                raise RuntimeError("site logic")

        def script():
            yield _Rpc(Broken(), "echo", (1,))

        runtime = ScriptEngine(NetworkStats(), ClusterHealth([0]), TWO_ATTEMPTS)
        with pytest.raises(RuntimeError, match="site logic"):
            runtime._drive(script())
        assert runtime.stats.rpc_retries == 0


ALLOWED_REPRO_IMPORTS = {
    "repro.fault.errors",
    "repro.fault.fsm",
    "repro.fault.retry",
    "repro.net.stats",
    "repro.net.transport",
}


def test_the_engine_imports_nothing_of_the_protocol():
    """Stdlib plus the fault primitives and the stats/endpoint types — only."""
    tree = ast.parse(Path(engine.__file__).read_text())
    package = engine.__name__.split(".")[:-1]  # repro.distributed
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - (node.level - 1)] if node.level else []
            modules = [".".join(base + ([node.module] if node.module else []))]
        else:
            continue
        for module in modules:
            if module.split(".")[0] in sys.stdlib_module_names:
                continue
            seen.add(module)
    assert seen <= ALLOWED_REPRO_IMPORTS, sorted(seen - ALLOWED_REPRO_IMPORTS)
    assert seen, "the engine is expected to build on fault/ and net/"
