"""The :class:`ContinuousCoordinator`: standing queries, pushed deltas.

The continuous counterpart of the one-shot DSUD/e-DSUD coordinator:
clients *register* :class:`~repro.stream.deltas.StandingQuery` specs,
sites ingest their sliding-window streams, and every call to
:meth:`ContinuousCoordinator.close_epoch` reconciles the global result
sets and returns the ordered :class:`~repro.stream.deltas.ResultDelta`
notifications for every registered query.

Exactness contract (pinned by ``tests/stream/``): after every epoch,
:meth:`result` for each query is **bit-identical** — keys,
probabilities, and canonical order — to a fresh
:func:`~repro.distributed.query.distributed_skyline` run over the
current live window contents of all sites.  The mechanism is the
canonical product: a fresh run scores an answer member as its origin
site's local skyline probability times the other sites' Eq. 9 probe
factors, multiplied in ascending site order — and both inputs are pure
(bit-stable) functions of each site's window contents, so the
coordinator can cache them and re-multiply instead of re-asking.

Per epoch and preference group, the protocol exchanges (and bills):

1. each site's :class:`~repro.stream.site.StreamDigest` — ``DELTA``
   messages (one tuple per newly entered candidate, zero for re-scores
   and factor pushes) and ``EXPIRE`` notices for departures;
2. replication of new candidates to the other sites — ``REPLICA_SYNC``
   down (tuple-bearing), a ``DELTA`` factor reply back (zero tuples);
3. notifications to clients — ``NOTIFY`` (zero tuples, like
   ``RESULT``: answers are excluded from the §3.2 bandwidth metric).

Registration and group teardown travel as ``SUBSCRIBE`` control
messages.  All of it lands in the same :class:`~repro.net.stats.NetworkStats`
books the one-shot protocol bills, so suppressed-versus-shipped ratios
read straight off ``stats.tuples_transmitted``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.dominance import Preference
from ..core.prob_skyline import ProbabilisticSkyline, SkylineMember
from ..core.tuples import UncertainTuple
from ..net.message import MessageKind
from ..net.stats import LatencyModel, NetworkStats
from .deltas import DeltaKind, ResultDelta, StandingQuery
from .site import StreamSite

__all__ = ["ContinuousCoordinator"]

_SERVER = "server"

#: A preference collapses to this hashable identity for grouping.
_PrefKey = Tuple[Optional[Tuple[str, ...]], Optional[Tuple[int, ...]]]


def _preference_key(preference: Optional[Preference]) -> _PrefKey:
    if preference is None:
        return (None, None)
    directions = (
        None
        if preference.directions is None
        else tuple(str(d) for d in preference.directions)
    )
    subspace = (
        None if preference.subspace is None else tuple(preference.subspace)
    )
    return (directions, subspace)


class _PoolEntry:
    """One global candidate: origin-local score plus cached probe factors."""

    __slots__ = ("tuple", "origin", "local", "factors", "probability")

    def __init__(self, t: UncertainTuple, origin: int, local: float) -> None:
        self.tuple = t
        self.origin = origin
        self.local = local
        self.factors: Dict[int, float] = {}
        self.probability = local


class _GroupBook:
    """Coordinator-side state for one preference group."""

    def __init__(
        self, group_id: int, preference: Optional[Preference]
    ) -> None:
        self.group_id = group_id
        self.preference = preference
        self.query_ids: List[int] = []
        self.pool: Dict[int, _PoolEntry] = {}


class ContinuousCoordinator:
    """Standing-query coordinator over :class:`StreamSite` participants."""

    def __init__(
        self,
        sites: Sequence[StreamSite],
        latency_model: Optional[LatencyModel] = None,
    ) -> None:
        if not sites:
            raise ValueError("need at least one stream site")
        self.sites = list(sites)
        ids = [site.site_id for site in self.sites]
        if ids != sorted(set(ids)):
            raise ValueError(
                f"site ids must be unique and ascending, got {ids!r}"
            )
        self.stats = NetworkStats(latency_model=latency_model or LatencyModel())
        self.epoch = 0
        self._queries: Dict[int, StandingQuery] = {}
        self._views: Dict[int, Dict[int, float]] = {}
        self._groups: Dict[_PrefKey, _GroupBook] = {}
        self._next_query_id = 0
        self._next_group_id = 0
        self._seen_keys: set = set()
        #: Arrivals ingested since the last epoch close — the naive
        #: forwarding baseline would have shipped every one of them.
        self.arrivals_this_epoch = 0
        self.arrivals_total = 0
        #: Uplink tuples actually shipped (DELTA-entered candidates) and
        #: downlink replication cost, for suppressed-vs-shipped ratios.
        self.candidates_shipped = 0
        self.replicas_shipped = 0

    # ------------------------------------------------------------------
    # registration (SUBSCRIBE control traffic)
    # ------------------------------------------------------------------

    def register(self, query: StandingQuery) -> int:
        """Register one standing query; returns its query id.

        The first notification batch for the query arrives at the next
        :meth:`close_epoch` (an ``ENTER`` per current member).
        """
        self._next_query_id += 1
        query_id = self._next_query_id
        self._queries[query_id] = query
        self._views[query_id] = {}
        self.stats.bill(MessageKind.SUBSCRIBE, f"client-{query_id}", _SERVER)
        key = _preference_key(query.preference)
        book = self._groups.get(key)
        if book is None:
            book = _GroupBook(self._next_group_id, query.preference)
            self._next_group_id += 1
            self._groups[key] = book
        previous_q_min = self._q_min(book) if book.query_ids else None
        book.query_ids.append(query_id)
        q_min = self._q_min(book)
        if previous_q_min is None or q_min < previous_q_min:
            # A new or loosened suppression bound must reach the edge.
            for site in self.sites:
                self.stats.bill(MessageKind.SUBSCRIBE, _SERVER, self._name(site))
                site.register_group(book.group_id, q_min, book.preference)
        return query_id

    def unregister(self, query_id: int) -> None:
        """Tear one standing query down; its group follows if now empty."""
        query = self._queries.pop(query_id, None)
        if query is None:
            raise KeyError(f"no standing query {query_id}")
        self._views.pop(query_id, None)
        key = _preference_key(query.preference)
        book = self._groups[key]
        book.query_ids.remove(query_id)
        if not book.query_ids:
            del self._groups[key]
            for site in self.sites:
                self.stats.bill(MessageKind.SUBSCRIBE, _SERVER, self._name(site))
                site.drop_group(book.group_id)
            return
        q_min = self._q_min(book)
        if query.threshold >= q_min:
            return  # q_min did not move: the edge bound stands
        for site in self.sites:
            self.stats.bill(MessageKind.SUBSCRIBE, _SERVER, self._name(site))
            site.register_group(book.group_id, q_min, book.preference)

    def queries(self) -> Dict[int, StandingQuery]:
        """The registered queries, by id."""
        return dict(self._queries)

    def _q_min(self, book: _GroupBook) -> float:
        return min(self._queries[qid].threshold for qid in book.query_ids)

    # ------------------------------------------------------------------
    # the data plane
    # ------------------------------------------------------------------

    def ingest(
        self, site_id: int, t: UncertainTuple, stamp: Optional[float] = None
    ) -> None:
        """Feed one stream arrival to one site (local, never billed)."""
        if not 0 <= site_id < len(self.sites):
            raise IndexError(f"no site {site_id} (have {len(self.sites)})")
        if t.key in self._seen_keys:
            raise ValueError(
                f"stream key {t.key} already live or previously seen; "
                f"stream keys must be unique"
            )
        self._seen_keys.add(t.key)
        self.sites[site_id].ingest(t, stamp)
        self.arrivals_this_epoch += 1
        self.arrivals_total += 1

    def advance(self, now: float) -> None:
        """Advance every site's clock (time-based windows expire)."""
        for site in self.sites:
            site.advance(now)

    def live_partitions(self) -> List[List[UncertainTuple]]:
        """Every site's live window contents (the fresh-run comparand)."""
        return [site.live_tuples() for site in self.sites]

    # ------------------------------------------------------------------
    # the control plane: one epoch close
    # ------------------------------------------------------------------

    def close_epoch(self) -> List[ResultDelta]:
        """Reconcile all standing results; returns the ordered deltas.

        Deltas are grouped by ascending query id; within one query,
        EXITs first (ascending key), then ENTER/RESCOREs in the result
        set's canonical order.
        """
        self.epoch += 1
        shipped = 0
        for key in sorted(self._groups, key=lambda k: self._groups[k].group_id):
            shipped += self._reconcile_group(self._groups[key])
        deltas: List[ResultDelta] = []
        for query_id in sorted(self._queries):
            deltas.extend(self._notify(query_id))
        self.stats.record_round(tuples_in_round=shipped)
        self.arrivals_this_epoch = 0
        return deltas

    def _reconcile_group(self, book: _GroupBook) -> int:
        """Digest, replicate, and re-score one preference group."""
        shipped = 0
        entered_by_site: Dict[int, List[Tuple[UncertainTuple, float]]] = {}
        departed: List[int] = []
        for site in self.sites:
            digest = site.close_epoch(book.group_id)
            for _t, _local in digest.entered:
                self.stats.bill(MessageKind.DELTA, self._name(site), _SERVER)
                shipped += 1
                self.candidates_shipped += 1
            if digest.rescored or digest.factors:
                self.stats.bill(
                    MessageKind.DELTA, self._name(site), _SERVER, tuples=0
                )
            for _key in digest.departed:
                self.stats.bill(MessageKind.EXPIRE, self._name(site), _SERVER)
            entered_by_site[site.site_id] = digest.entered
            departed.extend(digest.departed)
            for key, local in digest.rescored:
                book.pool[key].local = local
            for key, factor in digest.factors:
                entry = book.pool.get(key)
                if entry is not None:
                    entry.factors[site.site_id] = factor
        for key in departed:
            del book.pool[key]
        for site_id, entered in entered_by_site.items():
            for t, local in entered:
                book.pool[t.key] = _PoolEntry(t, site_id, local)
        # Replicate the new candidates outward; collect initial factors.
        for site in self.sites:
            payload = [
                t
                for site_id, entered in sorted(entered_by_site.items())
                for t, _local in entered
                if site_id != site.site_id
            ]
            removed = list(departed)
            if not payload and not removed:
                continue
            self.stats.bill(
                MessageKind.REPLICA_SYNC,
                _SERVER,
                self._name(site),
                tuples=len(payload),
            )
            self.replicas_shipped += len(payload)
            replies = site.sync_candidates(book.group_id, payload, removed)
            if payload:
                self.stats.bill(
                    MessageKind.DELTA, self._name(site), _SERVER, tuples=0
                )
            for key, factor in replies:
                entry = book.pool.get(key)
                if entry is not None:
                    entry.factors[site.site_id] = factor
        # The canonical product: origin-local score times the other
        # sites' factors in ascending site order — the exact multiply
        # order a fresh run uses, hence bit-identical probabilities.
        for entry in book.pool.values():
            probability = entry.local
            for site in self.sites:
                if site.site_id == entry.origin:
                    continue
                probability *= entry.factors[site.site_id]
            entry.probability = probability
        return shipped

    def _notify(self, query_id: int) -> List[ResultDelta]:
        query = self._queries[query_id]
        book = self._groups[_preference_key(query.preference)]
        members = [
            entry
            for entry in book.pool.values()
            if entry.probability >= query.threshold
        ]
        members.sort(key=lambda e: (-e.probability, e.tuple.key))
        if query.limit is not None:
            members = members[: query.limit]
        now: Dict[int, float] = {e.tuple.key: e.probability for e in members}
        previous = self._views[query_id]
        deltas: List[ResultDelta] = []
        for key in sorted(k for k in previous if k not in now):
            deltas.append(
                ResultDelta(query_id, self.epoch, DeltaKind.EXIT, key)
            )
        for entry in members:
            key = entry.tuple.key
            if key not in previous:
                deltas.append(
                    ResultDelta(
                        query_id,
                        self.epoch,
                        DeltaKind.ENTER,
                        key,
                        probability=entry.probability,
                        tuple=entry.tuple,
                    )
                )
            elif previous[key] != entry.probability:
                deltas.append(
                    ResultDelta(
                        query_id,
                        self.epoch,
                        DeltaKind.RESCORE,
                        key,
                        probability=entry.probability,
                        tuple=entry.tuple,
                    )
                )
        self._views[query_id] = now
        if deltas:
            self.stats.bill(
                MessageKind.NOTIFY, _SERVER, f"client-{query_id}", tuples=0
            )
        return deltas

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def result(self, query_id: int) -> ProbabilisticSkyline:
        """The standing result as of the last closed epoch."""
        query = self._queries[query_id]
        book = self._groups[_preference_key(query.preference)]
        view = self._views[query_id]
        members = [
            SkylineMember(book.pool[key].tuple, probability)
            for key, probability in view.items()
        ]
        return ProbabilisticSkyline(query.threshold, members)

    @staticmethod
    def _name(site: StreamSite) -> str:
        return f"site-{site.site_id}"
