"""The central server H: shared machinery of the §4 framework.

:class:`Coordinator` implements everything the four algorithms have in
common — preparing sites, fetching representatives (To-Server phase),
broadcasting feedback and combining the returned factors into exact
global probabilities (Server-Delivery phase, Lemma 1), reporting
qualified tuples progressively, and accounting every protocol message
against the paper's bandwidth metric.  The concrete algorithms
(:mod:`~repro.distributed.baseline`, :mod:`~repro.distributed.naive`,
:mod:`~repro.distributed.dsud`, :mod:`~repro.distributed.edsud`)
subclass it and supply only their iteration policy.

One path per behaviour
----------------------
Every building block exists once, as a *sans-io* generator script
(``_*_script``) that yields :class:`_Rpc`/:class:`_Fanout` descriptors
instead of touching a site; a broadcast of k feedback tuples is one
script for every k ≥ 1.  :meth:`Coordinator._lower` expands every
descriptor into per-site *lanes* — each one site's calls, run in order
through the one RPC funnel (:meth:`Coordinator._rpc_script`) — and two
thin pumps differ only in how they drive them: :meth:`Coordinator.steps`
(``_drive(script)`` for a single building block) drains the lanes one
after another, :meth:`Coordinator.asteps` keeps every lane whose
endpoint answers with an awaitable in flight at once.  Neither pump
contains any bookkeeping, and a site sees the same calls in the same
order under both, so answers, message books, and FSM journals do not
depend on which one ran the query.

Fault tolerance
---------------
Every coordinator→site RPC goes through :meth:`Coordinator._rpc_script`,
which retries transport faults under an optional
:class:`~repro.fault.retry.RetryPolicy` and, when retries are
exhausted, escalates to the per-site lifecycle FSM
(:class:`~repro.fault.fsm.ClusterHealth`) instead of raising.  A
DOWN site is excluded from subsequent rounds; the factors it can no
longer contribute are tracked by a
:class:`~repro.fault.coverage.CoverageTracker`, so every affected
result carries its Corollary-1 upper bound and the set of sites that
did contribute.  Run loops run :meth:`_poll_recoveries_script` once per
iteration: a DOWN site that answers a liveness probe is re-probed for
every factor it owes (tightening — possibly retracting — degraded
results) and handed back to the iteration policy via the sites list
the poll returns.  On a healthy run none of this machinery sends a
single extra message, so accounting stays bit-identical to the
fault-oblivious protocol.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    AsyncGenerator,
    Awaitable,
    Callable,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.dominance import Preference
from ..core.prob_skyline import ProbabilisticSkyline, SkylineMember
from ..core.tuples import UncertainTuple
from ..fault.coverage import CoverageTracker, TupleCoverage
from ..fault.errors import RETRYABLE_FAULTS
from ..fault.fsm import ClusterHealth
from ..fault.liveness import LivenessBook
from ..fault.retry import RetryPolicy, attempt_loop
from ..net.message import Message, MessageKind, Quaternion
from ..net.stats import LatencyModel, NetworkStats, ProgressLog
from ..net.transport import SiteEndpoint
from .runner import RunResult

if TYPE_CHECKING:  # imported lazily — replica builds on distributed.site
    from ..replica.manager import ReplicaManager

__all__ = ["Coordinator", "TopKBuffer", "BufferedResult"]

_SERVER = "server"

#: The emission callback drains hand results to (Coordinator.report).
ReportFn = Callable[[UncertainTuple, float], object]


@dataclass(frozen=True)
class _Rpc:
    """One site RPC a protocol script asks to have performed.

    The protocol building blocks are *sans-io* generators: instead of
    calling sites directly they yield ``_Rpc`` descriptors and receive
    the ``(ok, value)`` verdict back through ``send()``.  Every
    descriptor is expanded by :meth:`Coordinator._rpc_script` — retry,
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


#: What a protocol script may yield: a request, or ``None`` for a
#: scheduling point.
_Request = Union[_Rpc, _Fanout]

#: What the RPC funnel asks of whoever advances it: a callable is one
#: attempt of one endpoint method (invoke it once, answer ``(value,
#: None)``, or ``(None, fault)`` for a :data:`RETRYABLE_FAULTS`
#: member); a number is a backoff to sleep.
_Attempt = Union[Callable[[], Any], float]

#: One site's calls of one request: asks for their attempts and
#: backoffs, returns their ``(ok, value)`` verdicts.
_Lane = Generator[_Attempt, Any, List[Tuple[bool, object]]]

#: What :meth:`Coordinator._lower` asks of a pump: ``None`` is a
#: scheduling point, a list is one request's lanes to run.
_Op = Optional[List[_Lane]]

#: ``retry_policy=None`` means exactly this: the first transport fault
#: is terminal.
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
    run as tasks awaited with ``asyncio.wait``, which (unlike
    ``gather``) leaves cancelling them to us: by the time a
    cancellation reaches this coroutine every sibling has started, so
    cancelling it unwinds a call in flight and never drops a coroutine
    unawaited.  A failure surfaces only after the wave's other calls
    have settled.
    """
    while parked:
        if len(parked) == 1:
            ((i, awaitable),) = parked
            ready = [(i, await _settle(awaitable))]
        else:
            tasks = [asyncio.ensure_future(_settle(a)) for _, a in parked]
            try:
                await asyncio.wait(tasks)
            except BaseException:
                for task in tasks:
                    task.cancel()
                raise
            for failure in [task.exception() for task in tasks]:
                if failure is not None:
                    raise failure
            ready = [(i, task.result()) for (i, _), task in zip(parked, tasks)]
        parked = _advance_all(lanes, ready, results)


@dataclass
class BufferedResult:
    """One resolved, qualified tuple waiting inside a :class:`TopKBuffer`.

    ``coverage`` is the *live* :class:`TupleCoverage` the broadcast
    opened — shared with the coordinator's tracker, so a recovered
    site's re-probe tightens :attr:`effective` in place instead of the
    entry staying frozen at its offer-time probability.  ``origin`` and
    ``seq`` namespace the ordering tiebreak: two tuples that share a
    key across sites never fall through to comparing
    :class:`UncertainTuple` objects.
    """

    tuple: UncertainTuple
    probability: float                        # offer-time global probability
    coverage: Optional[TupleCoverage] = None  # live Corollary-1 books
    origin: int = -1
    seq: int = 0

    @property
    def effective(self) -> float:
        """The current probability: exact, or the live Corollary-1 bound."""
        if self.coverage is not None:
            return self.coverage.upper_bound
        return self.probability

    @property
    def exact(self) -> bool:
        """True when every site's Eq.-9 factor is folded in (Lemma 1)."""
        return self.coverage is None or self.coverage.exact

    def sort_key(self) -> Tuple[float, int, int, int]:
        """Deterministic total order: probability desc, then (key, origin)."""
        return (-self.effective, self.tuple.key, self.origin, self.seq)


class TopKBuffer:
    """Order-correct top-k emission for progressive coordinators.

    The iteration policies resolve candidates in *bound* order, not in
    exact-probability order, so under a result limit a resolved tuple
    may only be emitted once nothing still unresolved could beat it.
    The buffer holds resolved qualified tuples and releases one only
    when its probability is **exact** (all Eq.-9 factors present) and
    **strictly** greater than both the caller-supplied cap on
    everything unresolved and every other buffered entry's Corollary-1
    bound; k emitted results end the query — that early stop is the
    whole bandwidth win of ``limit=``.

    Emission rules, deterministic by construction:

    * **Tie rule** — a probability merely *equal* to the cap is held:
      an unresolved candidate could still tie, and with equal exact
      probabilities the ``(key, origin)`` order must decide.  Once the
      tied candidates are all buffered, ties emit in ascending
      ``(key, origin)`` order.
    * **Degraded entries** — an entry whose probability is a mere
      Corollary-1 upper bound (a site was DOWN during its broadcast)
      is never released by :meth:`drain`; it re-scores in place as
      recovered sites are re-probed, and is retracted silently if its
      bound sinks below ``threshold``.  Only :meth:`flush` (natural
      termination, nothing left to resolve or recover) emits inexact
      entries, in bound order — the coordinator then surfaces them via
      ``CoverageReport.degraded``.
    * **Bounded memory** — at most ``limit`` pending entries whenever
      everything buffered is exact; an entry is dropped only when
      ``limit - emitted`` *exact* entries provably outrank it forever
      (exact values are final and a bound only ever decreases, so the
      order cannot invert).
    """

    def __init__(self, limit: int, threshold: float = 0.0) -> None:
        if limit < 1:
            raise ValueError(f"limit must be positive, got {limit!r}")
        self.limit = limit
        self.threshold = threshold
        self.emitted = 0
        self._entries: List[BufferedResult] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        """Pending entries that could still be emitted."""
        return self.limit - self.emitted

    def offer(
        self,
        t: UncertainTuple,
        probability: float,
        coverage: Optional[TupleCoverage] = None,
    ) -> None:
        """Buffer one resolved qualified tuple (with its live coverage)."""
        self._entries.append(
            BufferedResult(
                tuple=t,
                probability=probability,
                coverage=coverage,
                origin=coverage.origin if coverage is not None else -1,
                seq=next(self._seq),
            )
        )
        self._entries.sort(key=BufferedResult.sort_key)
        self._trim()

    def _trim(self) -> None:
        """Drop tail entries provably outside the remaining capacity.

        Sound only when the ``capacity`` best entries are all exact:
        their values are final, and the tail's bound can only decrease,
        so the tail can never climb back in.  While any leading entry
        is inexact everything is kept — its bound may tighten below the
        tail.
        """
        while len(self._entries) > self.capacity and all(
            entry.exact for entry in self._entries[: self.capacity]
        ):
            self._entries.pop()

    def _prune_retracted(self) -> None:
        """Drop entries a re-probe has pushed below the threshold.

        They were never emitted, so the progressive guarantee holds:
        tightening retracts *buffered* state, never a reported tuple.
        """
        if self.threshold > 0.0:
            self._entries = [
                e for e in self._entries if e.effective >= self.threshold
            ]

    def inexact_entries(self) -> List[BufferedResult]:
        """Pending entries whose probability is still a mere upper bound."""
        return [e for e in self._entries if not e.exact]

    def inexact_cap(self) -> float:
        """The largest Corollary-1 bound among pending inexact entries."""
        return max(
            (e.effective for e in self._entries if not e.exact), default=0.0
        )

    def drain(self, remaining_cap: float, report: ReportFn) -> bool:
        """Emit everything provably next-best; True once the limit is hit.

        An entry is emittable only when it is exact and its probability
        strictly beats ``remaining_cap`` *and* every other pending
        entry's bound — see the class docstring for the tie and
        degraded-entry rules.
        """
        self._prune_retracted()
        self._entries.sort(key=BufferedResult.sort_key)
        while self._entries and self.emitted < self.limit:
            head = self._entries[0]
            if not head.exact:
                break
            if head.effective <= max(remaining_cap, self.inexact_cap()):
                break
            self._entries.pop(0)
            report(head.tuple, head.effective)
            self.emitted += 1
        self._trim()
        return self.emitted >= self.limit

    def flush(self, report: ReportFn) -> bool:
        """Natural termination: nothing unresolved (or recoverable) remains.

        Exact entries emit at their exact probability; entries still
        inexact — their sites stayed DOWN to the end — emit at their
        Corollary-1 upper bound, in bound order, and the coordinator
        annotates them through ``CoverageReport.degraded``.  Entries
        beyond the limit stay pending for that same disclosure.
        """
        self._prune_retracted()
        self._entries.sort(key=BufferedResult.sort_key)
        while self._entries and self.emitted < self.limit:
            head = self._entries.pop(0)
            report(head.tuple, head.effective)
            self.emitted += 1
        return self.emitted >= self.limit


class Coordinator:
    """Base class for the central server of a distributed skyline query."""

    algorithm = "abstract"

    def __init__(
        self,
        sites: Sequence[SiteEndpoint],
        threshold: float,
        preference: Optional[Preference] = None,
        latency_model: Optional[LatencyModel] = None,
        limit: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        batch_size: int = 1,
        replica_manager: Optional["ReplicaManager"] = None,
        liveness_book: Optional[LivenessBook] = None,
    ) -> None:
        if not sites:
            raise ValueError("a distributed query needs at least one site")
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold q must be in (0, 1], got {threshold!r}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size!r}")
        self.sites = list(sites)
        self.threshold = threshold
        self.preference = preference
        self.stats = NetworkStats(latency_model=latency_model or LatencyModel())
        self.progress = ProgressLog()
        self.results: List[SkylineMember] = []
        self.iterations = 0
        #: ``None`` keeps single-attempt semantics: the first transport
        #: fault marks the site DOWN.  A policy inserts retries (with
        #: backoff) between the fault and that escalation.
        self.retry_policy = retry_policy
        #: Feedback quaternions shipped per FEEDBACK message.  1 keeps
        #: every message, round, and floating-point product bit-identical
        #: to the paper's per-candidate protocol; k > 1 trades strictly
        #: fewer coordination rounds for slightly staler Local-Pruning
        #: feedback within a round (see docs/performance.md).
        self.batch_size = batch_size
        self.health = ClusterHealth(s.site_id for s in self.sites)
        self.coverage = CoverageTracker(s.site_id for s in self.sites)
        self.coverage.add_tighten_hook(self._tighten_result)
        self._site_by_id = {s.site_id: s for s in self.sites}
        self._prepared: set = set()
        #: ``limit=k`` makes the query a top-k probabilistic skyline:
        #: the buffer below holds resolved qualified tuples until they
        #: are provably next-best (see :class:`TopKBuffer`); ``None``
        #: reports every resolved candidate straight through.
        self.limit = limit
        self._topk: Optional[TopKBuffer] = (
            TopKBuffer(limit, threshold=threshold) if limit is not None else None
        )
        #: Per-site cap on the local skyline probability of anything
        #: the site has *not yet delivered*: its queue pops in
        #: descending order, so the next candidate is bounded by the
        #: last one fetched (1.0 before the first fetch, 0.0 once
        #: exhausted).  :meth:`_down_sites_cap` reads this for DOWN
        #: sites so a top-k early stop cannot cut off a recovery that
        #: might still surface a better tuple.
        self._site_tail_cap: Dict[int, float] = {
            s.site_id: 1.0 for s in self.sites
        }
        #: Optional replication subsystem: with buddy replicas a
        #: primary that goes DOWN is *failed over* (a replica is
        #: promoted as the logical site's endpoint, the in-flight round
        #: replayed) instead of degrading the query to Corollary-1
        #: bounds.  Provisioning happens before the query books are
        #: bound, so a healthy replicated run bills exactly like an
        #: unreplicated one.
        self.replica_manager = replica_manager
        if replica_manager is not None:
            replica_manager.ensure_provisioned()
            replica_manager.bind_stats(self.stats)
        #: Representative keys each logical site already surrendered —
        #: the catch-up list a promoted replacement fast-forwards over
        #: so it never re-serves a delivered candidate.
        self._delivered_keys: Dict[int, List[int]] = {
            s.site_id: [] for s in self.sites
        }
        #: Verdicts of ``pop_representative`` calls that rode a fan-out,
        #: by logical site, until :meth:`_fetch_representative_script`
        #: settles them (a failed pop, an empty one, a delivery) at the
        #: point the sequential protocol would have popped.
        self._rode: Dict[int, Tuple[bool, object]] = {}
        #: Logical sites currently served by a promoted replica, mapped
        #: to their original primary endpoint (the failback probe
        #: target).
        self._failed_over: Dict[int, SiteEndpoint] = {}
        #: Optional shared liveness snapshot (the serving layer hands
        #: the same book to every in-flight query so a dead shared site
        #: is probed once per epoch, not once per query).  ``None`` —
        #: the solo default — probes in-band exactly as before.
        self.liveness_book = liveness_book

    # ------------------------------------------------------------------
    # the fault-tolerant RPC funnel (sans-io: shared by both pumps)
    # ------------------------------------------------------------------

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

    def _lower(
        self, script: Generator[Optional[_Request], Any, Any]
    ) -> Generator[_Op, Any, Any]:
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

    # ------------------------------------------------------------------
    # protocol building blocks
    # ------------------------------------------------------------------

    def _prepare_sites_script(
        self,
    ) -> Generator[Optional[_Request], Any, List[int]]:
        """Local computing phase on every site; returns |SKY(D_i)| sizes.

        One fan-out: the sites prepare independently.  A site that
        fails its PREPARE (after retries) is marked DOWN and simply
        contributes no size — the query proceeds over the reachable
        partitions.
        """
        sites = list(self.sites)  # a failover below swaps entries of self.sites
        for site in sites:
            self._account(MessageKind.PREPARE, _SERVER, self._name(site))
        attempts = yield _Fanout(
            tuple((_Rpc(site, "prepare", (self.threshold,)),) for site in sites)
        )
        sizes = []
        for site, ((ok, size),) in zip(sites, attempts):
            if not ok:
                # A buddy replica (if any) can take over from the very
                # first round — its prepare is billed inside _promote.
                promoted = yield from self._failover_script(site.site_id)
                if promoted is None:
                    continue
                _endpoint, size, _factors = promoted
            else:
                self._prepared.add(site.site_id)
                self._account(MessageKind.PREPARE_REPLY, self._name(site), _SERVER)
            sizes.append(size)
        self.stats.record_round()
        return sizes

    def _live_endpoint(self, site: SiteEndpoint) -> Optional[SiteEndpoint]:
        """The endpoint serving a logical site now; ``None`` while it is DOWN.

        Re-resolves through the live endpoint table: run loops hold
        references from query start, which go stale after a failover or
        failback swaps the logical site's serving endpoint.
        """
        site = self._site_by_id.get(site.site_id, site)
        return None if self.health.is_down(site.site_id) else site

    def _fan_out_pops_script(
        self, sites: Sequence[SiteEndpoint], request: bool = True
    ) -> Generator[Optional[_Request], Any, None]:
        """To-Server phase against several sites: their pops in one wave.

        Only the independent half: each NEXT_REQUEST is billed
        (``request=False`` models the initial fill, where every site
        pushes its head spontaneously and none is paid) and each pop
        issued; the verdicts wait in ``_rode`` for the per-site
        :meth:`_fetch_representative_script` calls that must follow, in
        site order, which settle them one by one as if popped one by
        one.  A site that is DOWN is left out: its pop is not a plain
        call (a replica may have to be promoted first), so it takes
        the ordinary path there.
        """
        live = [s for s in map(self._live_endpoint, sites) if s is not None]
        if request:
            for site in live:
                self._account(MessageKind.NEXT_REQUEST, _SERVER, self._name(site))
        attempts = yield _Fanout(
            tuple((_Rpc(site, "pop_representative"),) for site in live)
        )
        for site, (verdict,) in zip(live, attempts):
            self._rode[site.site_id] = verdict

    def _fetch_representative_script(
        self, site: SiteEndpoint, request: bool = True
    ) -> Generator[Optional[_Request], Any, Optional[Quaternion]]:
        """To-Server phase against one site.

        A pop that already rode a fan-out (a broadcast's ``refill``, or
        :meth:`_fan_out_pops_script`) was billed and issued there; its
        verdict is settled here.  Otherwise the NEXT_REQUEST is paid
        (unless ``request=False``, see above) and the pop issued first.
        Returns ``None`` both for a genuinely exhausted site and for an
        unreachable one — in the latter case the FSM records the loss
        and :meth:`_poll_recoveries_script` can undo it later.
        """
        verdict = self._rode.pop(site.site_id, None)
        if verdict is None:
            live = self._live_endpoint(site)
            if live is None:
                promoted = yield from self._failover_script(site.site_id)
                if promoted is None:
                    return None
                live = promoted[0]
            if request:
                self._account(MessageKind.NEXT_REQUEST, _SERVER, self._name(live))
            verdict = yield _Rpc(live, "pop_representative")
        ok, quaternion = verdict
        if not ok:
            # Died on the pop: promote a replica (which fast-forwards
            # past everything already delivered) and re-issue the pop
            # against it — the To-Server phase continues exactly.
            promoted = yield from self._failover_script(site.site_id)
            if promoted is None:
                return None
            ok, quaternion = yield _Rpc(promoted[0], "pop_representative")
            if not ok:
                return None
        if quaternion is None:
            self._site_tail_cap[site.site_id] = 0.0
            self._account(MessageKind.EXHAUSTED, self._name(site), _SERVER)
            return None
        # The queue pops in descending order: whatever the site still
        # holds is bounded by what it just delivered.
        self._site_tail_cap[site.site_id] = quaternion.local_probability
        self._account(MessageKind.REPRESENTATIVE, self._name(site), _SERVER)
        self._delivered_keys[site.site_id].append(quaternion.key)
        return quaternion

    def _initial_fill_script(
        self,
    ) -> Generator[Optional[_Request], Any, List[Quaternion]]:
        """First To-Server round: every site's head, in parallel."""
        sites = list(self.sites)
        yield from self._fan_out_pops_script(sites, request=False)
        out = []
        for site in sites:
            quaternion = yield from self._fetch_representative_script(
                site, request=False
            )
            if quaternion is not None:
                out.append(quaternion)
        self.stats.record_round(tuples_in_round=len(out))
        return out

    def _broadcast_batch_script(
        self, quaternions: Sequence[Quaternion], refill: Sequence[SiteEndpoint] = ()
    ) -> Generator[Optional[_Request], Any, List[float]]:
        """Server-Delivery + Local-Pruning round for up to ``batch_size`` candidates.

        Sends each tuple to every reachable site except its origin,
        folds the returned Eq.-9 factors into the global probabilities
        via Lemma 1 (in site order — the multiplication order is part
        of the bit-identity contract), and advances the simulated clock
        by one parallel round.  Returns one probability per quaternion,
        aligned with the input.  With full coverage the product is
        exact; with sites down it is the Corollary-1 upper bound (each
        missing factor ≤ 1), and the coverage tracker knows which.
        ``refill`` is passed on to
        :meth:`_broadcast_probes_batch_script`.
        """
        quaternions = list(quaternions)
        probabilities = [q.local_probability for q in quaternions]
        triples = yield from self._broadcast_probes_batch_script(quaternions, refill)
        for _site_id, index, factor in triples:
            probabilities[index] *= factor
        return probabilities

    def _broadcast_probes_batch_script(
        self, quaternions: Sequence[Quaternion], refill: Sequence[SiteEndpoint] = ()
    ) -> Generator[Optional[_Request], Any, List[Tuple[int, int, float]]]:
        """Deliver a batch of feedback tuples; return per-tuple factors.

        Returns ``(site_id, batch_index, factor)`` triples and does all
        the accounting; :meth:`_broadcast_batch_script` and e-DSUD's
        factor-tracking variant both build on it.  Each live site
        receives *one* FEEDBACK message carrying every batch tuple it
        did not originate (billed at k tuples — the paper's metric
        counts tuples, not envelopes) and answers with one PROBE_REPLY
        carrying k scalars.  The whole batch costs a single parallel
        round.  This is the only broadcast path: at k = 1 every site's
        share is a single tuple, so the round is the paper's
        per-candidate protocol — one ``probe_and_prune`` RPC and one
        one-tuple FEEDBACK per target, never the batch RPC.

        ``refill`` names the origin sites the caller will ask for their
        next representative right after this round (DSUD and e-DSUD do
        so unconditionally).  Those pops do not depend on any other
        site's reply, so they *ride* this fan-out: an origin's lane is
        its probe share, if it has one, followed by its
        ``pop_representative`` — the calls each site sees, and their
        order, are the sequential protocol's.  An origin that is DOWN
        gets no riding pop, and one whose lane fails before the pop is
        not billed for it: both take the ordinary path afterwards.  A
        pop that was reached leaves its verdict for
        :meth:`_fetch_representative_script` to settle after the caller
        has reported this round's results; the refill keeps its own
        ``record_round`` there, so the simulated clock still counts it
        as a round of its own.

        Accounting is per-reply: FEEDBACK is billed when the probe is
        *sent* (DOWN sites are never sent to, so never billed), but
        PROBE_REPLY only when the site actually answers — a site that
        dies mid-broadcast costs the attempt, not the reply.

        Endpoints without ``probe_and_prune_batch`` (e.g. region
        aggregators) degrade to per-tuple probe_and_prune RPCs behind
        the same batched accounting.
        """
        quaternions = list(quaternions)
        if not quaternions:
            return []
        for q in quaternions:
            self.coverage.open(q.tuple.key, q.site, q.tuple, q.local_probability)
        plan = []  # (site, indices of batch tuples it must probe)
        total_tuples = 0
        for site in self.sites:
            if self.health.is_down(site.site_id):
                continue
            indices = [
                i for i, q in enumerate(quaternions) if q.site != site.site_id
            ]
            if not indices:
                continue
            plan.append((site, indices))
            self._account(
                MessageKind.FEEDBACK, _SERVER, self._name(site), tuples=len(indices)
            )
            total_tuples += len(indices)

        # Two per-site call shapes, mirrored when decoding replies: one
        # batched RPC, or — for a single-tuple share (every share at
        # k = 1) and for endpoints without probe_and_prune_batch —
        # sequential per-tuple probes whose partial factors still
        # tighten coverage.
        pops = {
            site.site_id: _Rpc(site, "pop_representative")
            for site in map(self._live_endpoint, refill)
            if site is not None
        }
        batched = []
        lanes: List[Tuple[_Rpc, ...]] = []
        riders = []  # (lane index, the pop that closes that lane)
        for site, indices in plan:
            ts = [quaternions[i].tuple for i in indices]
            one_rpc = (
                len(ts) > 1 and getattr(site, "probe_and_prune_batch", None) is not None
            )
            batched.append(one_rpc)
            if one_rpc:
                lane = [_Rpc(site, "probe_and_prune_batch", (ts,))]
            else:
                lane = [_Rpc(site, "probe_and_prune", (t,)) for t in ts]
            pop = pops.pop(site.site_id, None)
            if pop is not None:
                lane.append(pop)
                riders.append((len(lanes), pop))
            lanes.append(tuple(lane))
        # An origin with no share of its own (every origin at k = 1)
        # pops in a lane of its own, after the probe lanes.
        for pop in pops.values():
            riders.append((len(lanes), pop))
            lanes.append((pop,))
        attempts = yield _Fanout(tuple(lanes))
        for index, pop in riders:
            # A pop rode — and is billed — only if its lane got that
            # far; its verdict leaves the probe results it followed.
            if len(attempts[index]) == len(lanes[index]):
                self._account(MessageKind.NEXT_REQUEST, _SERVER, self._name(pop.site))
                self._rode[pop.site.site_id] = attempts[index].pop()
        out = []
        for (site, indices), one_rpc, results in zip(plan, batched, attempts):
            if one_rpc:
                ok, reply = results[0]
                factors = list(reply.factors) if ok else []
            else:
                factors = [reply.factor for ok, reply in results if ok]
            if not factors:
                # Mid-round casualty: a promoted replica supplies the
                # whole batch's factors through the replay inside
                # _promote (billed there as FAILOVER_PROBE/PROBE_REPLY
                # and already contributed to the coverage books).
                replayed = yield from self._failover_factors_script(site.site_id)
                if replayed is None:
                    continue  # factors stay missing in the coverage books
                for index in indices:
                    factor = replayed.get(quaternions[index].tuple.key)
                    if factor is not None:
                        out.append((site.site_id, index, factor))
                continue
            self._account(MessageKind.PROBE_REPLY, self._name(site), _SERVER)
            for index, factor in zip(indices, factors):
                self.coverage.contribute(
                    quaternions[index].tuple.key, site.site_id, factor
                )
                out.append((site.site_id, index, factor))
        self.stats.record_round(tuples_in_round=total_tuples)
        return out

    def report(self, t: UncertainTuple, global_probability: float) -> bool:
        """Progressively emit a resolved candidate; True if it qualified.

        Run loops must not call this directly — route emission through
        :meth:`emit` (skylint SKY102), which composes the ``limit=``
        buffer with the coverage books.  ``report`` is the terminal
        client-facing step the buffer drains into.
        """
        if global_probability < self.threshold:
            return False
        self.coverage.watch(t.key)
        self.results.append(SkylineMember(t, global_probability))
        self.progress.report(t.key, global_probability, self.stats)
        self._account(MessageKind.RESULT, _SERVER, "client")
        return True

    # ------------------------------------------------------------------
    # the coverage-aware emission funnel
    # ------------------------------------------------------------------

    def emit(self, t: UncertainTuple, global_probability: float) -> None:
        """Route one resolved candidate through the emission funnel.

        Unlimited queries report straight through.  Under ``limit=``
        the qualified tuple is buffered together with its **live**
        :class:`~repro.fault.coverage.TupleCoverage`, so a probability
        that is only a Corollary-1 upper bound (a site was DOWN during
        the broadcast) is re-scored in place when the recovered site is
        re-probed — never emitted frozen at offer time.
        """
        if self._topk is None:
            self.report(t, global_probability)
            return
        if global_probability < self.threshold:
            return
        coverage = self.coverage.get(t.key)
        if coverage is not None:
            self.coverage.watch(t.key)
        self._topk.offer(t, global_probability, coverage=coverage)

    def drain_topk(self, remaining_cap: float) -> bool:
        """Release provably next-best buffered results; True at k emitted.

        ``remaining_cap`` is the caller's bound on everything still
        unresolved *on reachable sites*; the buffer additionally sees
        the cap on anything a DOWN site might yet surface, so the
        emitted-count early stop cannot terminate the query while a
        recovery could still promote a cheaper tuple above a buffered
        one.  No-op (False) without a ``limit=``.
        """
        if self._topk is None:
            return False
        cap = max(remaining_cap, self._down_sites_cap())
        return self._topk.drain(cap, self.report)

    def finish_topk(self) -> None:
        """Flush the top-k buffer at natural termination.

        Entries still inexact at this point belong to sites that never
        recovered; they emit at their Corollary-1 bound and are
        disclosed via ``CoverageReport.degraded`` by :meth:`run`.
        """
        if self._topk is not None:
            self._topk.flush(self.report)

    def _down_sites_cap(self) -> float:
        """Bound on the global probability of anything a DOWN site holds.

        A site's undelivered candidates are capped by its last
        delivered local probability (descending queue order); before
        any delivery the cap is 1.0.  Healthy clusters pay a single
        flag check.
        """
        if not self.health.any_down:
            return 0.0
        return max(
            self._site_tail_cap[site_id] for site_id in self.health.down_sites()
        )

    # ------------------------------------------------------------------
    # recovery and reintegration
    # ------------------------------------------------------------------

    def _poll_recoveries_script(
        self,
    ) -> Generator[Optional[_Request], Any, List[SiteEndpoint]]:
        """Give every DOWN site one chance to come back; drive failback.

        Free while the cluster is healthy (a single flag check).  Each
        DOWN site gets one unretried liveness probe (a CONTROL
        message); if it answers, the site is re-probed for every Eq.-9
        factor it owes — tightening, and possibly retracting, degraded
        results — and returned so the iteration policy can resume
        fetching its candidates.  A site that stays dead *and* has a
        buddy replica is failed over instead: the replica is promoted
        as the logical site's endpoint and likewise returned.  (Most
        failovers happen earlier, inline at the faulting RPC; this path
        catches sites whose reintegration attempt failed.)  Finally,
        each failed-over primary gets its own liveness probe — on an
        answer it is re-synced and promoted back (failback).
        """
        if not self.health.any_down and not self._failed_over:
            return []
        recovered: List[SiteEndpoint] = []
        for site_id in self.health.down_sites():
            site = self._site_by_id[site_id]
            alive = yield from self._probe_liveness_script(site)
            if not alive:
                promoted = yield from self._failover_script(site_id)
                if promoted is not None:
                    recovered.append(promoted[0])
                continue
            self.health.mark_recovering(site_id, "liveness probe answered")
            reintegrated = yield from self._reintegrate_script(site)
            if reintegrated:
                self.health.mark_up(site_id, "reintegration complete")
                self.stats.sites_recovered += 1
                recovered.append(site)
            else:
                self.health.mark_down(site_id, "reintegration failed")
        yield from self._poll_failbacks_script()
        return recovered

    def _probe_liveness_script(
        self, endpoint: SiteEndpoint, kind: str = "site"
    ) -> Generator[Optional[_Request], Any, bool]:
        """One unretried liveness probe, shared through the book if any.

        Solo (``liveness_book is None``) this is exactly the historical
        in-band probe: one CONTROL message answered by ``queue_size()``.
        With a book, a verdict already recorded this epoch is reused —
        no message is accounted — so many concurrent queries sharing a
        site collapse their probes into one per epoch.  ``kind`` keeps
        the probe of a failed-over *primary* from shadowing the probe
        of the logical site's serving endpoint.
        """
        book = self.liveness_book
        key = (kind, endpoint.site_id)
        if book is not None:
            cached = book.lookup(key)
            if cached is not None:
                return cached
        self._account(MessageKind.CONTROL, _SERVER, self._name(endpoint))
        alive, _size = yield _Rpc(endpoint, "queue_size", raw=True)
        if book is not None:
            book.record(key, alive)
        return alive

    def _reintegrate_script(
        self, site: SiteEndpoint
    ) -> Generator[Optional[_Request], Any, bool]:
        """Bring one RECOVERING site back into the query.

        Prepares it if it never completed PREPARE, then replays every
        broadcast it missed via probe_and_prune — collecting its exact
        factors (tightening the Corollary-1 bounds) *and* delivering
        the feedback its Local-Pruning phase never saw.
        """
        site_id = site.site_id
        if site_id not in self._prepared:
            self._account(MessageKind.PREPARE, _SERVER, self._name(site))
            ok, _size = yield _Rpc(site, "prepare", (self.threshold,))
            if not ok:
                return False
            self._prepared.add(site_id)
            self._account(MessageKind.PREPARE_REPLY, self._name(site), _SERVER)
        owed = self.coverage.missing_from(site_id)
        for cov in owed:
            self._account(MessageKind.FEEDBACK, _SERVER, self._name(site))
            ok, reply = yield _Rpc(site, "probe_and_prune", (cov.tuple,))
            if not ok:
                return False
            self._account(MessageKind.PROBE_REPLY, self._name(site), _SERVER)
            # contribute() notifies the tighten hooks for watched keys:
            # reported results re-score (possibly retract) and buffered
            # top-k entries re-score through their shared TupleCoverage.
            self.coverage.contribute(cov.key, site_id, reply.factor)
        if owed:
            self.stats.record_round(tuples_in_round=len(owed))
        return True

    # ------------------------------------------------------------------
    # replica failover and failback
    # ------------------------------------------------------------------

    def _failover_script(
        self, site_id: int
    ) -> Generator[
        Optional[_Request], Any, Optional[Tuple[SiteEndpoint, int, Dict[int, float]]]
    ]:
        """Re-target a DOWN logical site at its buddy replica.

        Returns ``(endpoint, |SKY(D_i)|, replayed factors by key)`` on
        success — the logical site is UP again, served by the replica,
        and every Eq.-9 factor the dead primary owed has been recovered
        (so ``coverage`` is exact again and the top-k drain stops
        holding tuples back).  ``None`` when no replication is
        configured, the site already failed over once (the replica
        itself died — with one buddy there is no second failover), or
        promotion failed.
        """
        if self.replica_manager is None or site_id in self._failed_over:
            return None
        if not self.health.is_down(site_id):
            return None
        replica = self.replica_manager.replica_for(site_id)
        if replica is None:
            return None
        primary = self._site_by_id[site_id]
        self.health.mark_recovering(site_id, "failover: promoting buddy replica")
        promoted = yield from self._promote_script(site_id, replica)
        if promoted is None:
            # _promote's failing RPC already journalled the fault and
            # marked the site DOWN again; the query stays degraded.
            return None
        size, factors = promoted
        self._failed_over[site_id] = primary
        self.stats.failovers += 1
        return replica, size, factors

    def _failover_factors_script(
        self, site_id: int
    ) -> Generator[Optional[_Request], Any, Optional[Dict[int, float]]]:
        """Fail over and return every factor the promotion replayed."""
        promoted = yield from self._failover_script(site_id)
        if promoted is None:
            return None
        return promoted[2]

    def _promote_script(
        self, site_id: int, endpoint: SiteEndpoint
    ) -> Generator[Optional[_Request], Any, Optional[Tuple[int, Dict[int, float]]]]:
        """Converge a replacement endpoint onto the serving state and swap it in.

        Shared by failover (a replica replaces its dead primary) and
        failback (the re-synced primary replaces the replica).  Three
        steps, each billed:

        1. ``prepare(q)`` rebuilds the candidate queue from the
           replacement's (identical) partition copy — deterministic, so
           the queue matches the twin's initial queue exactly.
        2. Every broadcast the query ever sent to this logical site is
           replayed, in broadcast order, as a tuple-bearing
           ``FAILOVER_PROBE``: the ``probe_and_prune`` replies rebuild
           the Local-Pruning state bit-for-bit (same factors, same
           multiplication order as a never-failed twin) and — via
           ``coverage.contribute`` — recover any Eq.-9 factor still
           owed, firing the tighten hooks that re-score reported
           results and buffered top-k entries back to exactness.
        3. ``fast_forward`` over the representatives already
           surrendered (keys only: one zero-tuple CONTROL message, the
           §3.2 metric counts tuples) so the replacement never
           re-serves a delivered candidate.

        Returns ``(|SKY(D_i)|, replayed factors by key)``; ``None`` if
        the replacement itself faulted (the site is then DOWN again).
        """
        name = self._name(endpoint)
        self._account(MessageKind.PREPARE, _SERVER, name)
        ok, size = yield _Rpc(endpoint, "prepare", (self.threshold,))
        if not ok:
            return None
        self._prepared.add(site_id)
        self._account(MessageKind.PREPARE_REPLY, name, _SERVER)
        factors: Dict[int, float] = {}
        replayed = [cov for cov in self.coverage.entries() if cov.origin != site_id]
        for cov in replayed:
            self._account(MessageKind.FAILOVER_PROBE, _SERVER, name)
            ok, reply = yield _Rpc(endpoint, "probe_and_prune", (cov.tuple,))
            if not ok:
                return None
            self._account(MessageKind.PROBE_REPLY, name, _SERVER)
            factors[cov.key] = reply.factor
            # contribute() is a no-op for factors the dead twin already
            # supplied, and restores exactness for the owed ones.
            self.coverage.contribute(cov.key, site_id, reply.factor)
        delivered = self._delivered_keys[site_id]
        if delivered:
            self._account(MessageKind.CONTROL, _SERVER, name)
            ok, _skipped = yield _Rpc(endpoint, "fast_forward", (delivered,))
            if not ok:
                return None
        self._site_by_id[site_id] = endpoint
        for i, s in enumerate(self.sites):
            if s.site_id == site_id:
                self.sites[i] = endpoint
                break
        if replayed:
            self.stats.record_round(tuples_in_round=len(replayed))
        return int(size), factors

    def _poll_failbacks_script(self) -> Generator[Optional[_Request], Any, None]:
        """Probe each failed-over primary; re-sync and re-target on answer.

        The replica keeps serving until its primary both answers a
        liveness probe (one CONTROL message per iteration, mirroring
        the DOWN-site cadence) and survives a full promotion: an
        anti-entropy re-sync of its partition (digest exchange — writes
        may have been forwarded while it was away) followed by the same
        prepare/replay/fast-forward convergence a failover runs.
        Failback is invisible to the run loops — the logical site was
        never out of rotation — so nothing is returned.
        """
        if not self._failed_over or self.replica_manager is None:
            return
        for site_id in sorted(self._failed_over):
            primary = self._failed_over[site_id]
            alive = yield from self._probe_liveness_script(primary, kind="primary")
            if not alive:
                continue
            # Partition re-sync runs in-process against replica state —
            # replicas are always local endpoints, never remote proxies.
            self.replica_manager.resync_primary(site_id)
            promoted = yield from self._promote_script(site_id, primary)
            if promoted is None:
                # The primary died again mid-promotion: the funnel marked the
                # logical site DOWN, but the replica is still serving —
                # restore UP through the legal RECOVERING hop.
                if self.health.is_down(site_id):
                    self.health.mark_recovering(site_id, "failback aborted")
                    self.health.mark_up(site_id, "buddy replica still serving")
                continue
            del self._failed_over[site_id]
            self.stats.failbacks += 1
            self.stats.sites_recovered += 1

    def _tighten_result(self, key: int, bound: float) -> None:
        """Apply a re-probed, tighter bound to an already-reported tuple.

        Registered as a :class:`CoverageTracker` tighten hook, so every
        re-probe of a watched key lands here.  Bounds only ever
        decrease, so tightening can demote a degraded result below
        ``q`` — in which case it is retracted: the degraded answer was
        a superset, and this is the shrink.  Buffered (never reported)
        top-k entries are not in ``results``; they re-score through the
        shared ``TupleCoverage`` and the buffer retracts them lazily on
        its next drain.
        """
        for i, member in enumerate(self.results):
            if member.tuple.key != key:
                continue
            if bound < self.threshold:
                del self.results[i]
            else:
                self.results[i] = SkylineMember(member.tuple, bound)
            return

    # ------------------------------------------------------------------
    # the run loop contract: one script, two thin pumps
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the query; subclasses implement :meth:`_steps`."""
        for _ in self.steps():
            pass
        return self.finish()

    def _pump(
        self, script: Generator[Optional[_Request], Any, Any]
    ) -> Generator[None, None, Any]:
        """The blocking pump: run each request's lanes one after another.

        Yields at each scheduling point and returns the script's value.
        Lanes are drained in the order given — site order — each to
        completion before the next starts.  Genuinely synchronous —
        plain calls and ``time.sleep`` — so it may be drawn from inside
        a running event loop (a benchmark draws :meth:`steps` within an
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

    def _drive(self, script: Generator[Optional[_Request], Any, Any]) -> Any:
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

    def steps(self) -> Iterator[None]:
        """Drive the query one scheduling point at a time.

        Progressive coordinators yield once per iteration of their run
        loop; the serving layer interleaves many queries by drawing one
        step from each session per scheduler turn.  The generator owns
        the whole query lifecycle — clock restart on first draw, script
        closed on exhaustion *or* early ``close()`` of the generator.
        Exhaust the generator, then read :meth:`finish` for the
        RunResult.
        """
        self.progress.restart_clock()
        yield from self._pump(self._steps())

    async def asteps(self) -> AsyncGenerator[None, None]:
        """The awaiting pump: :meth:`steps` for event-loop callers.

        Executes the *same* lowered ``_steps`` script, but awaits what
        an endpoint method returns when it is awaitable — endpoints may
        be sync (in-process :class:`LocalSite` forks, chaos wrappers,
        promoted replicas) or async
        (:class:`~repro.net.aio.AsyncRemoteSiteProxy`), and one
        coordinator can mix both — and backs off with
        ``asyncio.sleep``, so a session awaiting a socket reply hands
        the event loop to other sessions instead of blocking the
        scheduler thread.  A request's lanes run *overlapped*: every
        lane is advanced inline until it is parked on an awaitable
        (:func:`_advance_all`) and the parked ones are awaited together
        (:func:`_waves`), wave after wave, so a fan-out over m
        awaitable endpoints costs one round trip per wave, not m —
        while a lane over a sync endpoint runs inline, call for call as
        under :meth:`steps`.  There is no switch: the choice is made
        per call from what the endpoint returned.
        Scheduling points surface as async-iterator items, exactly one
        per sync ``steps()`` item — drive with ``async for`` and read
        :meth:`afinish` afterwards.  A cancelled or abandoned iteration
        cancels the calls in flight and closes every lane and the
        script, leaving sites and accounting books consistent at the
        last completed request boundary.
        """
        self.progress.restart_clock()
        ops = self._lower(self._steps())
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

    async def afinish(self) -> RunResult:
        """Assemble the RunResult once :meth:`asteps` is exhausted.

        Pure in-memory bookkeeping (no site RPCs), so awaiting it never
        blocks the loop; it exists so async callers never touch the
        sync surface.
        """
        return self.finish()

    def finish(self) -> RunResult:
        """Assemble the RunResult once :meth:`steps` is exhausted."""
        extra = self._extra()
        pruned = [
            getattr(site, "pruned_total", None) for site in self.sites
        ]
        if all(p is not None for p in pruned):
            # Local-pruning effectiveness; available for in-process
            # sites (TCP proxies do not expose internals).
            extra["site_pruned_total"] = float(sum(pruned))
        coverage = self.coverage.report(
            self.health.down_sites(),
            result_keys=[m.tuple.key for m in self.results],
            transitions=[
                f"site-{t.site_id}: {t.old.value} -> {t.new.value} ({t.reason})"
                for t in self.health.transitions()
            ],
            buffered_keys=(
                [e.tuple.key for e in self._topk.inexact_entries()]
                if self._topk is not None
                else ()
            ),
        )
        return RunResult(
            algorithm=self.algorithm,
            answer=ProbabilisticSkyline(self.threshold, list(self.results)),
            stats=self.stats,
            progress=self.progress,
            iterations=self.iterations,
            extra=extra,
            coverage=coverage,
        )

    def _steps(self) -> Generator[Optional[_Request], Any, None]:
        """Subclass hook: the iteration policy as a *sans-io* script.

        The script yields two things: ``None`` for a scheduling point
        (one per run-loop iteration — :meth:`steps`/:meth:`asteps`
        surface these to the caller) and :class:`_Rpc`/:class:`_Fanout`
        request descriptors, whose ``(ok, value)`` results come back
        through ``send()``.  Protocol building blocks compose via
        ``yield from self._*_script(...)``, so one iteration policy
        runs under both pumps unchanged.
        """
        raise NotImplementedError

    def _extra(self) -> dict:
        return {}

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------

    def _account(
        self,
        kind: MessageKind,
        sender: str,
        receiver: str,
        tuples: Optional[int] = None,
    ) -> None:
        self.stats.record(
            Message.bearing(kind, sender, receiver, payload=None, tuple_count=tuples)
        )

    @staticmethod
    def _name(site: SiteEndpoint) -> str:
        return f"site-{site.site_id}"
