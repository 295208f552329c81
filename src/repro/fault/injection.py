"""The fault-injecting endpoint decorator.

:class:`FaultyEndpoint` is an
:class:`~repro.net.transport.EndpointInterceptor` whose ``before`` hook
consults a :class:`~repro.fault.schedule.FaultSchedule` ahead of every
protocol call (one gate per RPC — a batch is one message on the wire).
Injected crashes and timeouts raise *before* the inner call runs, so a
retried RPC is always safe — the site never saw the failed attempt,
exactly like a packet lost on the wire.

Injected faults are journalled in :attr:`FaultyEndpoint.injected` so a
chaos test can assert the schedule actually fired.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..net.transport import EndpointInterceptor, SiteEndpoint
from .errors import SiteCrashed, SiteTimeout
from .schedule import FaultAction, FaultKind, FaultSchedule

__all__ = ["InjectedFault", "FaultyEndpoint"]


@dataclass(frozen=True)
class InjectedFault:
    """One fault the decorator actually injected."""

    site_id: int
    method: str
    call_index: int
    action: FaultAction


class FaultyEndpoint(EndpointInterceptor):
    """Transparent endpoint decorator that replays a fault schedule.

    ``sleep`` serves injected DELAY faults; pass ``asyncio.sleep`` when
    an event loop drives the endpoint, so the delay is awaited instead
    of blocking every co-scheduled session.
    """

    def __init__(
        self,
        inner: "SiteEndpoint",
        schedule: FaultSchedule,
        sleep: Optional[Callable[[float], Any]] = time.sleep,
    ) -> None:
        super().__init__(inner)
        self.schedule = schedule
        self.calls = 0
        self.injected: List[InjectedFault] = []
        self._sleep = sleep

    def before(self, method: str, args: Tuple[Any, ...]) -> Any:
        """Count the call and apply the scheduled fault, if any."""
        self.calls += 1
        action = self.schedule.decide(self.site_id, method, self.calls)
        if action is None:
            return None
        self.injected.append(InjectedFault(self.site_id, method, self.calls, action))
        if action.kind is FaultKind.CRASH:
            raise SiteCrashed(
                self.site_id, f"injected crash on {method} (call {self.calls})"
            )
        if action.kind is FaultKind.TIMEOUT:
            raise SiteTimeout(
                self.site_id, f"injected timeout on {method} (call {self.calls})"
            )
        if action.kind is FaultKind.DELAY and self._sleep is not None:
            return self._sleep(action.delay)
        return None
