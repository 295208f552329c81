"""The sans-io script engine: one RPC funnel, two thin pumps.

:class:`ScriptEngine` runs protocol *scripts* — generators that yield
:class:`_Rpc`/:class:`_Fanout` descriptors instead of touching a site —
and knows nothing of the protocol they carry: it needs a
:class:`~repro.net.stats.NetworkStats` (retry and round-trip books), a
:class:`~repro.fault.fsm.ClusterHealth` (the per-site lifecycle FSM)
and an optional :class:`~repro.fault.retry.RetryPolicy`.  When retries
are exhausted the funnel marks the site DOWN and answers ``(False,
None)`` instead of raising; what a DOWN site means — degraded answers,
recovery polls, failover — is the script's business.

One path per behaviour
----------------------
:meth:`ScriptEngine._lower` expands every descriptor into per-site
*lanes* — each one site's calls, run in order through the one RPC
funnel (:meth:`ScriptEngine._rpc_script`) — and two thin pumps differ
only in how they drive them: :meth:`ScriptEngine._pump`
(``_drive(script)`` for a single building block) drains the lanes one
after another, :meth:`ScriptEngine._apump` keeps every lane whose
endpoint answers with an awaitable in flight at once — one waiter per
wave, no task per future.  Neither pump contains any bookkeeping, and a
site sees the same calls in the same order under both, so answers,
message books, and FSM journals do not depend on which one ran it.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
import time
from dataclasses import dataclass
from typing import (
    Any,
    AsyncGenerator,
    Awaitable,
    Callable,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..fault.errors import RETRYABLE_FAULTS
from ..fault.fsm import ClusterHealth
from ..fault.retry import RetryPolicy, attempt_loop
from ..net.stats import NetworkStats
from ..net.transport import SiteEndpoint

__all__ = ["ScriptEngine"]


@dataclass(frozen=True)
class _Rpc:
    """One site RPC a protocol script asks to have performed.

    The protocol building blocks are *sans-io* generators: instead of
    calling sites directly they yield ``_Rpc`` descriptors and receive
    the ``(ok, value)`` verdict back through ``send()``.  Every
    descriptor is expanded by :meth:`ScriptEngine._rpc_script` — retry,
    FSM, and accounting live there, in the script, so the verdict does
    not depend on which pump carried the call.

    ``raw=True`` requests a single unretried attempt with no stats or
    FSM side effects (the liveness-probe shape): the verdict is
    ``(alive, value)`` where a transport fault means ``(False, None)``.
    """

    site: SiteEndpoint
    method: str
    args: Tuple[Any, ...] = ()
    raw: bool = False


@dataclass(frozen=True)
class _Fanout:
    """A one-round fan-out: one *lane* of sequential RPCs per target site.

    Each inner tuple is one site's lane: its calls run in order and
    stop at the first failed one, so the per-endpoint call order — what
    a chaos schedule counts and what a site's queue and pruning state
    depend on — is fixed by the script alone.  Lanes address distinct
    sites and are independent of one another.  The blocking pump drains
    them one after another in the order given; the awaiting pump keeps
    every lane whose endpoint answers with an awaitable in flight at
    once, which is what the simulated clock always assumed (a fan-out
    is billed as one parallel round whatever the wall clock did).  The
    reply is a list of per-lane ``(ok, value)`` verdict lists, aligned
    with the input.
    """

    plans: Tuple[Tuple[_Rpc, ...], ...] = ()


#: What a protocol script may yield (``None`` is a scheduling point).
_Request = Union[_Rpc, _Fanout]

#: A protocol script: yields requests, is sent their verdicts.
_Script = Generator[Optional[_Request], Any, Any]

#: What the RPC funnel asks of whoever advances it: a callable is one
#: attempt of one endpoint method (invoke it once, answer ``(value,
#: None)``, or ``(None, fault)`` for a :data:`RETRYABLE_FAULTS`
#: member); a number is a backoff to sleep.
_Attempt = Union[Callable[[], Any], float]

#: One site's calls of one request: asks for their attempts and
#: backoffs, returns their ``(ok, value)`` verdicts.
_Lane = Generator[_Attempt, Any, List[Tuple[bool, object]]]

#: What :meth:`ScriptEngine._lower` asks of a pump: ``None`` is a
#: scheduling point, a list is one request's lanes to run.
_Op = Optional[List[_Lane]]

#: What ``retry_policy=None`` means: the first transport fault is terminal.
_SINGLE_ATTEMPT = RetryPolicy(max_attempts=1)


def _drain(lane: _Lane) -> List[Tuple[bool, object]]:
    """The blocking way to run a lane: to completion, sleeping in place."""
    reply: object = None
    while True:
        try:
            op = lane.send(reply)
        except StopIteration as stop:
            return stop.value
        if callable(op):
            try:
                reply = op(), None
            except RETRYABLE_FAULTS as exc:
                reply = None, exc
        else:
            time.sleep(op)
            reply = None


def _advance(
    lane: _Lane, reply: object
) -> Tuple[Optional[Awaitable[Any]], Optional[List[Tuple[bool, object]]]]:
    """The awaiting way: run a lane inline until it is done or parked.

    Returns ``(None, verdicts)`` when the lane ran to completion, or
    ``(awaitable, None)`` when an endpoint call handed back something
    to await, or a backoff is due; its outcome is the ``reply`` to
    resume the lane with.  The choice is made per call, so a lane over
    a sync endpoint never parks on a call.
    """
    while True:
        try:
            op = lane.send(reply)
        except StopIteration as stop:
            return None, stop.value
        if not callable(op):
            return asyncio.sleep(op), None
        try:
            value = op()
        except RETRYABLE_FAULTS as exc:
            reply = None, exc
            continue
        if inspect.isawaitable(value):
            return value, None
        reply = value, None


async def _settle(awaitable: Awaitable[Any]) -> Tuple[Any, Optional[Exception]]:
    """Await one parked call or backoff: the outcome its lane resumes with."""
    try:
        return await awaitable, None
    except RETRYABLE_FAULTS as exc:
        return None, exc


async def _fail(failure: Exception) -> Any:
    """What a lane that raised is parked on: its own failure."""
    raise failure


def _advance_all(
    lanes: List[_Lane], ready: Iterable[Tuple[int, object]], results: List[Any]
) -> List[Tuple[int, Awaitable[Any]]]:
    """A wave's inline half: advance the ``ready`` lanes; who parked, on what.

    Lanes over sync endpoints all finish here, in the first wave — no
    coroutine, task or future is made for them.
    """
    parked: List[Tuple[int, Awaitable[Any]]] = []
    for i, reply in ready:
        try:
            awaitable, results[i] = _advance(lanes[i], reply)
        except Exception as exc:
            # Anything but a transport fault ends the query — once the
            # calls already collected beside it have been awaited.
            awaitable = _fail(exc)
        if awaitable is not None:
            parked.append((i, awaitable))
    return parked


async def _waves(
    lanes: List[_Lane], parked: List[Tuple[int, Awaitable[Any]]], results: List[Any]
) -> None:
    """A wave's awaiting half: await what parked together, advance, repeat.

    One parked lane is awaited in place — a lane over a sync endpoint
    parks on nothing but a backoff, and costs no task for it.  Siblings
    are awaited as they are, with one ``asyncio.wait`` (a future passes
    ``ensure_future`` as itself, only a coroutine gets a task), which
    leaves cancelling them to us: by then every sibling task has started,
    so cancelling unwinds a call in flight and never drops a coroutine
    unawaited.  An outcome is a value, a :data:`RETRYABLE_FAULTS` member
    for its lane, or a failure raised once the whole wave has settled.
    """
    while parked:
        if len(parked) == 1:
            ((i, awaitable),) = parked
            ready = [(i, await _settle(awaitable))]
        else:
            waiting = [asyncio.ensure_future(a) for _, a in parked]
            try:
                await asyncio.wait(waiting)
            except BaseException:
                for future in waiting:
                    future.cancel()
                raise
            faults = [future.exception() for future in waiting]
            for fault in faults:
                if fault is not None and not isinstance(fault, RETRYABLE_FAULTS):
                    raise fault
            outcomes = [(None, e) if e else (f.result(), None) for f, e in zip(waiting, faults)]
            ready = [(i, outcome) for (i, _), outcome in zip(parked, outcomes)]
        parked = _advance_all(lanes, ready, results)


class ScriptEngine:
    """Runs sans-io protocol scripts against site endpoints."""

    def __init__(
        self,
        stats: NetworkStats,
        health: ClusterHealth,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.stats = stats
        self.health = health
        #: ``None`` keeps single-attempt semantics: the first transport
        #: fault marks the site DOWN.  A policy inserts retries (with
        #: backoff) between the fault and that escalation.
        self.retry_policy = retry_policy

    def _rpc_script(
        self, request: _Rpc
    ) -> Generator[_Attempt, Any, Tuple[bool, object]]:
        """Perform one site RPC; never raises transport faults.

        Returns ``(True, value)`` on success.  On a terminal transport
        fault the site is marked DOWN and ``(False, None)`` is returned
        — the caller degrades instead of unwinding.  Attempts and
        backoffs are *yielded* (see :data:`_Attempt`); retry accounting,
        the observed round-trip clock, and FSM transitions happen here,
        so a chaos schedule's transitions and retry books replay
        bit-for-bit under either pump.
        """
        site, method, args = request.site, request.method, request.args
        site_id = site.site_id

        def call() -> object:
            return getattr(site, method)(*args)

        if request.raw:
            value, error = yield call
            return error is None, value
        lifecycle = self.health.lifecycle(site_id)

        def on_retry(attempt: int, delay: float, exc: Exception) -> None:
            self.stats.record_retry(delay)
            lifecycle.record_failure()

        start = time.perf_counter()
        value, error = yield from attempt_loop(
            call, self.retry_policy or _SINGLE_ATTEMPT, site_id, on_retry
        )
        self.stats.record_rpc_time(time.perf_counter() - start)
        if error is not None:
            self.stats.record_failure()
            if not lifecycle.is_down:
                lifecycle.record_failure()
                self.health.mark_down(site_id, reason=f"{method}: {error!r}")
                self.stats.sites_lost += 1
            return False, None
        if not lifecycle.is_up:
            # A retry succeeded while SUSPECT, or a reintegration call
            # succeeded while RECOVERING: either way the site is back.
            self.health.mark_up(site_id, reason=f"{method} succeeded")
        return True, value

    def _lane(self, plan: Sequence[_Rpc]) -> _Lane:
        """One site's calls in order, stopping at the first failed one."""
        verdicts: List[Tuple[bool, object]] = []
        for rpc in plan:
            verdict = yield from self._rpc_script(rpc)
            verdicts.append(verdict)
            if not verdict[0]:
                break
        return verdicts

    def _lower(self, script: _Script) -> Generator[_Op, Any, Any]:
        """Expand a protocol script's requests into pump operations.

        Only what a blocking and an event-loop caller must do
        differently is yielded: ``None`` is a scheduling point, a list
        is one request's lanes (:meth:`_lane` — an :class:`_Rpc` is a
        fan-out of one) for the pump to run in its own way and answer
        with their verdict lists.  Closing the lowered generator closes
        the lanes in flight and the protocol script, so an abandoned
        query leaves sites and books at the last completed request
        boundary.
        """
        reply: object = None
        lanes: List[_Lane] = []
        try:
            while True:
                try:
                    request = script.send(reply)
                except StopIteration as stop:
                    return stop.value
                if request is None:
                    reply = yield None
                elif isinstance(request, _Rpc):
                    lanes = [self._lane((request,))]
                    ((reply,),) = yield lanes
                else:
                    lanes = [self._lane(plan) for plan in request.plans]
                    reply = yield lanes
        finally:
            for lane in lanes:
                lane.close()
            script.close()

    def _pump(self, script: _Script) -> Generator[None, None, Any]:
        """The blocking pump: run each request's lanes one after another.

        Yields at each scheduling point and returns the script's value.
        Lanes are drained in the order given — site order — each to
        completion before the next starts.  Genuinely synchronous —
        plain calls and ``time.sleep`` — so it may be drawn from inside
        a running event loop (a benchmark draws ``steps()`` within an
        ``async def``).
        """
        ops = self._lower(script)
        reply: object = None
        try:
            while True:
                try:
                    lanes = ops.send(reply)
                except StopIteration as stop:
                    return stop.value
                if lanes is None:
                    reply = yield
                else:
                    reply = [_drain(lane) for lane in lanes]
        finally:
            ops.close()

    def _drive(self, script: _Script) -> Any:
        """Run one protocol script to completion synchronously.

        The one blocking way to execute a building block outside a run
        loop (scheduling points are passed over):
        ``coordinator._drive(coordinator._prepare_sites_script())``.
        """
        pump = self._pump(script)
        while True:
            try:
                next(pump)
            except StopIteration as stop:
                return stop.value

    async def _apump(self, script: _Script) -> AsyncGenerator[None, None]:
        """The awaiting pump: :meth:`_pump` for event-loop callers.

        Executes the *same* lowered script, but awaits what an endpoint
        method returns when it is awaitable — endpoints may be sync
        (in-process forks, chaos wrappers, promoted replicas) or async
        (:class:`~repro.net.aio.AsyncRemoteSiteProxy`), and one script
        can mix both — and backs off with ``asyncio.sleep``, so a
        caller awaiting a socket reply hands the event loop to others.
        A request's lanes run *overlapped*: every lane is advanced
        inline until it is parked on an awaitable (:func:`_advance_all`)
        and the parked ones are awaited together (:func:`_waves`), wave
        after wave, so a fan-out over m awaitable endpoints costs one
        round trip per wave, not m — while a lane over a sync endpoint
        runs inline, call for call as under :meth:`_pump`.  There is no
        switch: the choice is made per call from what the endpoint
        returned.  Scheduling points surface as async-iterator items,
        one per :meth:`_pump` item; the script's return value is
        dropped (an async generator cannot return one).  Cancelling or
        closing the iteration cancels the calls in flight and closes
        every lane and the script.
        """
        ops = self._lower(script)
        reply: object = None
        try:
            while True:
                try:
                    lanes = ops.send(reply)
                except StopIteration:
                    return
                if lanes is None:
                    reply = yield
                    continue
                results: List[Any] = [None] * len(lanes)
                everyone = zip(range(len(lanes)), itertools.repeat(None))
                parked = _advance_all(lanes, everyone, results)
                if parked:
                    await _waves(lanes, parked, results)
                reply = results
        finally:
            ops.close()
