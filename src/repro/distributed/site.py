"""The local-site runtime (§4's participant S_i, §6's implementation).

A :class:`LocalSite` owns one horizontal partition ``D_i`` of the
global uncertain database and implements every per-site obligation of
the DSUD/e-DSUD protocol:

* **Local computing phase** — compute the qualified local skyline
  ``SKY(D_i) = { t : P_sky(t, D_i) ≥ q }`` (BBS over the PR-tree, §6.2,
  or the sort-based fallback) and keep it sorted by descending local
  skyline probability as the *candidate queue*.
* **To-Server phase** — surrender the queue head as a
  :class:`~repro.net.message.Quaternion` on request.
* **Server-Delivery phase** — answer a probe for a foreign tuple ``t``
  with the factor ``P_sky(t, D_i) = ∏_{t'∈D_i, t'≺t}(1 − P(t'))``
  (Eq. 9) through the §6.3 window query, one tuple at a time or as a
  batch (:meth:`probe_and_prune_batch`) when the coordinator ships
  several feedback quaternions per round.
* **Local-Pruning phase** — fold each received feedback tuple into the
  pruning set and expunge queue candidates whose global-probability
  upper bound ``P_sky(s, D_i) × ∏_{f ≺ s}(1 − P(f))`` sinks below the
  threshold.  Pruned tuples stay in ``D_i`` (they still dominate) —
  only their candidacy dies.
* **§5.4 maintenance** — apply inserts/deletes to the stored
  partition, the candidate queue, and the replicated copy of ``SKY(H)``.

The site is the *protocol*: queue, feedback history, accounting.  Its
arithmetic — the local skyline, Eq. 9 factors, upkeep of the structure
answering them, the dominance test behind Local-Pruning — belongs to
one :class:`SiteKernel`, chosen once from ``SiteConfig.kernel`` and
shared with every :meth:`LocalSite.fork`.  The candidate queue is a
cursor plus an alive mask and a bound vector, so one feedback broadcast
tightens *every* dominated candidate's bound in a single masked multiply.

Sites never talk to each other; everything flows through the
coordinator, exactly as in the paper.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..core.dominance import Preference, dominates
from ..core.kernels import ColumnStore
from ..core.prob_skyline import ProbabilisticSkyline, SkylineMember, prob_skyline_sfs
from ..core.probability import feedback_pruning_bound, non_occurrence_product
from ..core.tuples import UncertainTuple, validate_database
from ..index.bbs import bbs_prob_skyline
from ..index.prtree import PRTree
from ..net.message import Quaternion

__all__ = ["SiteConfig", "KERNELS", "SiteKernel", "ProbeReply", "BatchProbeReply", "LocalSite"]


@dataclass(frozen=True)
class SiteConfig:
    """Per-site execution knobs.

    ``kernel``           — which :class:`SiteKernel` does the site's
                           arithmetic, one of :data:`KERNELS`:
                           ``"prtree"`` (§6: BBS and window queries over
                           the PR-tree, the one spatial index),
                           ``"columnar"`` (no index, flat numpy scans:
                           streams, the no-index ablation), ``"scalar"``
                           (the pure-Python reference the exactness
                           suites diff the others against).
    ``feedback_pruning`` — enable the Local-Pruning phase (ablation
                           switch; disabling it never affects the
                           answer, only bandwidth).
    ``store_products``   — keep non-occurrence products in the tree
                           (§6.3 probe optimization; ablation switch).
    """

    kernel: str = "prtree"
    feedback_pruning: bool = True
    store_products: bool = True


@dataclass(frozen=True)
class ProbeReply:
    """Answer to a feedback/probe broadcast."""

    factor: float
    pruned: int
    queue_remaining: int


@dataclass(frozen=True)
class BatchProbeReply:
    """Answer to a batched feedback broadcast: one factor per probe tuple.

    ``factors`` aligns with the request order; ``pruned`` totals the
    Local-Pruning drops across the whole batch.
    """

    factors: List[float]
    pruned: int
    queue_remaining: int


@dataclass
class _Candidate:
    tuple: UncertainTuple
    local_probability: float
    bound: float  # local probability × accumulated feedback factors


class _PreparedQueue:
    """One threshold's queue as :meth:`LocalSite.prepare` starts it, never written
    after, so forks share it and copy only ``bounds``.  ``rows`` memoises each
    feedback tuple's Local-Pruning dominance over the whole queue as bool-mask
    bytes; a fork ands a row with its own alive mask."""

    def __init__(
        self, answer: Iterable[SkylineMember] = (), kernel: Optional[SiteKernel] = None
    ) -> None:
        self.skyline = answer
        self.cands = [
            _Candidate(tuple=m.tuple, local_probability=m.probability, bound=m.probability)
            for m in answer  # ProbabilisticSkyline iterates descending
        ]
        self.bounds = np.array([c.local_probability for c in self.cands], dtype=np.float64)
        tuples = [c.tuple for c in self.cands]
        self.view: Any = kernel.queue_view(tuples) if kernel is not None and tuples else None
        self.rows: Dict[UncertainTuple, bytes] = {}

    def row(self, kernel: SiteKernel, t: UncertainTuple) -> np.ndarray:
        row = self.rows.get(t)
        if row is None:
            everyone = np.ones(len(self.cands), dtype=bool)
            row = self.rows[t] = kernel.dominated(t, self.view, everyone).tobytes()
        return np.frombuffer(row, dtype=bool)


@dataclass
class _TemplateMemo:
    """A forked template's pure answers, each computed once: exact Eq.-9
    factors by foreign tuple (value equality: a tuple sent under a stored
    key is an entry of its own) and prepared queues by threshold.  Forks
    in threads may race to fill one entry; both write the same answer."""

    factors: Dict[UncertainTuple, float] = field(default_factory=dict)
    queues: Dict[float, _PreparedQueue] = field(default_factory=dict)


_NO_QUEUE = _PreparedQueue()  # before any prepare; nothing in it is ever written


# ----------------------------------------------------------------------
# the kernels: a site's arithmetic, behind one surface
# ----------------------------------------------------------------------

#: The values ``SiteConfig.kernel`` accepts.
KERNELS = ("prtree", "columnar", "scalar")

Partition = Dict[int, UncertainTuple]


class SiteKernel:
    """The numeric duties the paper gives a site, over one partition ``D_i``.

    The qualified local skyline (§6.2), the Eq. 9 factor of a tuple
    (the §6.3 window query), their upkeep under §5.4 updates, and the
    dominance test Local-Pruning runs over the candidate queue — and no
    per-query state: a site and all its forks share one kernel, which
    is why a forked site refuses updates.  ``database`` is the site's
    live ``key → tuple`` dict, held by reference: an unshared site
    mutates it, then reports the change through :meth:`add` /
    :meth:`remove`.  The defaults are the columnar ones every kernel
    but the scalar oracle shares.
    """

    def __init__(self, database: Partition, preference: Optional[Preference]) -> None:
        self.database = database
        self.preference = preference

    def _point(self, t: UncertainTuple) -> np.ndarray:
        """One tuple's canonical min-space coordinates."""
        values = t.values if self.preference is None else self.preference.project(t.values)
        return np.asarray(values, dtype=np.float64)

    def skyline(self, threshold: float) -> ProbabilisticSkyline:
        """``SKY(D_i) = { t : P_sky(t, D_i) ≥ q }``."""
        raise NotImplementedError

    def factor(self, t: UncertainTuple, floor: float = 0.0) -> float:
        """Eq. 9: ``∏ (1 − P(t'))`` over stored ``t' ≺ t``, ``t`` itself excluded.

        Exact whenever the result is ≥ ``floor``; otherwise merely
        guaranteed below it (kernels may stop multiplying early).
        """
        raise NotImplementedError

    def factors(self, ts: Sequence[UncertainTuple]) -> List[float]:
        """Eq. 9 for a batch of tuples, in request order."""
        return [self.factor(t) for t in ts]

    def add(self, t: UncertainTuple) -> None:
        """``t`` was just stored in ``database``."""

    def remove(self, t: UncertainTuple) -> None:
        """``t`` was just dropped from ``database``."""

    def queue_view(self, candidates: List[UncertainTuple]) -> Any:
        """What :meth:`dominated` tests feedback against: a coordinate matrix."""
        return ColumnStore.from_tuples(candidates, self.preference).values

    def dominated(self, t: UncertainTuple, view: Any, alive: np.ndarray) -> np.ndarray:
        """Mask of the alive queue candidates ``t`` dominates (Local-Pruning)."""
        point = self._point(t)
        return alive & (view >= point).all(axis=1) & (view > point).any(axis=1)


class PRTreeKernel(SiteKernel):
    """The paper's configuration: BBS (§6.2) and the §6.3 window query
    over one PR-tree, updated in place."""

    def __init__(self, database: Partition, preference: Optional[Preference], index: PRTree) -> None:
        super().__init__(database, preference)
        self.index = index

    def skyline(self, threshold: float) -> ProbabilisticSkyline:
        return bbs_prob_skyline(self.index, threshold)

    def factor(self, t: UncertainTuple, floor: float = 0.0) -> float:
        return self.index.dominators_product(t, floor=floor)

    def factors(self, ts: Sequence[UncertainTuple]) -> List[float]:
        return [float(f) for f in self.index.dominators_products(ts)]

    def add(self, t: UncertainTuple) -> None:
        self.index.add(t)

    def remove(self, t: UncertainTuple) -> None:
        self.index.remove(t)


class ColumnarKernel(SiteKernel):
    """Flat scans of one column store (skyline and probes), rebuilt lazily after an update."""

    _store: Optional[ColumnStore] = None

    def store(self) -> ColumnStore:
        if self._store is None:
            self._store = ColumnStore.from_tuples(list(self.database.values()), self.preference)
        return self._store

    def skyline(self, threshold: float) -> ProbabilisticSkyline:
        return self.store().prob_skyline(threshold)

    def factor(self, t: UncertainTuple, floor: float = 0.0) -> float:
        return float(self.store().dominator_product(self._point(t), exclude_key=t.key))

    def factors(self, ts: Sequence[UncertainTuple]) -> List[float]:
        points = ColumnStore.from_tuples(ts, self.preference).values  # one projection
        return self.store().dominator_products(points, [t.key for t in ts]).tolist()

    def add(self, t: UncertainTuple) -> None:
        self._store = None  # any update: rebuild on next use

    remove = add


class ScalarKernel(SiteKernel):
    """The reference oracle: pure-Python arithmetic straight off the dict,
    which the exactness suites diff every other kernel against."""

    def skyline(self, threshold: float) -> ProbabilisticSkyline:
        return prob_skyline_sfs(list(self.database.values()), threshold, self.preference)

    def factor(self, t: UncertainTuple, floor: float = 0.0) -> float:
        return non_occurrence_product(t, self.database.values(), self.preference, floor=floor)

    def queue_view(self, candidates: List[UncertainTuple]) -> Any:
        return candidates

    def dominated(self, t: UncertainTuple, view: Any, alive: np.ndarray) -> np.ndarray:
        walk = [bool(a) and dominates(t, s, self.preference) for a, s in zip(alive, view)]
        return np.array(walk, dtype=bool)


def make_kernel(
    config: SiteConfig, database: Partition, preference: Optional[Preference]
) -> SiteKernel:
    """Build the kernel ``config.kernel`` names — the only reader of that field."""
    name = config.kernel
    if name == "prtree":
        tree = PRTree.build(database.values(), preference, store_products=config.store_products)
        return PRTreeKernel(database, preference, tree)
    flat = {"columnar": ColumnarKernel, "scalar": ScalarKernel}
    if name not in flat:
        raise ValueError(f"unknown kernel {name!r}; expected one of {KERNELS}")
    return flat[name](database, preference)


class LocalSite:
    """One participant S_i holding partition D_i."""

    def __init__(
        self,
        site_id: int,
        database: Sequence[UncertainTuple],
        preference: Optional[Preference] = None,
        config: Optional[SiteConfig] = None,
    ) -> None:
        self.site_id = site_id
        self.preference = preference
        self.config = config or SiteConfig()
        validate_database(list(database))  # unique keys, consistent d
        self.database: Dict[int, UncertainTuple] = {t.key: t for t in database}
        self.kernel = make_kernel(self.config, self.database, preference)
        #: Replica of the global result set for §5.4 updates: key →
        #: (tuple, global skyline probability).  Replicating SKY(H) at
        #: every participant is what lets most updates resolve without
        #: touching the network.
        self.sky_h_replica: Dict[int, "tuple[UncertainTuple, float]"] = {}
        #: Set by the first :meth:`fork`, shared by every fork: the site is
        #: then frozen (it refuses §5.4 updates) and answers each pure
        #: question once.  ``None`` (never forked) computes afresh.
        self._memo: Optional[_TemplateMemo] = None
        self._reset()

    def _reset(self, threshold: Optional[float] = None, queue: _PreparedQueue = _NO_QUEUE) -> int:
        """Start a query over ``queue``, forget feedback and accounting.

        Parallel to ``_cands`` (the queue's, shared with the kernel's view
        of them) run a cursor (``_q_head``), an alive mask and bounds.
        Front-pops advance the cursor in O(1); feedback pruning flips
        alive bits instead of rebuilding lists.  ``_q_live`` counts the
        alive bits: every place that clears one decrements it, so
        :meth:`queue_size` never sums the mask.
        """
        self.threshold = threshold
        self._prepared = queue
        self._cands = queue.cands
        self._q_head = 0
        self._q_alive = np.ones(len(self._cands), dtype=bool)
        self._q_live = len(self._cands)
        self._q_bounds = queue.bounds.copy()
        self._feedback: List[UncertainTuple] = []
        self._popped_keys: set = set()
        self.pruned_total = 0
        return len(self._cands)

    # ------------------------------------------------------------------
    # local computing phase
    # ------------------------------------------------------------------

    def prepare(self, threshold: float) -> int:
        """Compute and enqueue ``SKY(D_i)``; returns its size.

        Idempotent per threshold: calling again resets the queue and
        clears accumulated feedback, as a fresh query run needs.
        """
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold q must be in (0, 1], got {threshold!r}")
        return self._reset(threshold, self._queue_at(threshold))

    def _queue_at(self, threshold: float) -> _PreparedQueue:
        memo = self._memo
        queue = None if memo is None else memo.queues.get(threshold)
        if queue is None:
            queue = _PreparedQueue(self.kernel.skyline(threshold), self.kernel)
            if memo is not None:
                memo.queues[threshold] = queue
        return queue

    def fork(self) -> "LocalSite":
        """A per-session view over this site's partition.

        The fork shares everything a query only *reads* — the database
        dict, the kernel (with its index or column store) and the
        template memo — and owns everything a query *mutates*: queue
        bounds and alive mask, feedback history, pop/prune accounting,
        and an empty ``SKY(H)`` replica.  Two forks therefore run
        concurrent queries over one partition without observing each
        other, each bit-identical to a fresh :class:`LocalSite` over the
        same data.  Forking freezes the site and its forks: both refuse
        §5.4 updates, so the memo's factors, queues and dominance rows
        hold for as long as the template lives.
        """
        if self._memo is None:
            self._memo = _TemplateMemo()
        clone = object.__new__(LocalSite)
        clone.__dict__.update(self.__dict__)
        clone.sky_h_replica = {}
        clone._reset()
        return clone

    # ------------------------------------------------------------------
    # to-server phase
    # ------------------------------------------------------------------

    @property
    def _queue(self) -> List[_Candidate]:
        """The live candidates, in queue order, with current bounds.

        A materialised read-only view — synopsis building and tests
        iterate it; the mutable state lives in the cursor/mask/bound
        arrays.
        """
        return [
            _Candidate(
                tuple=self._cands[i].tuple,
                local_probability=self._cands[i].local_probability,
                bound=float(self._q_bounds[i]),
            )
            for i in range(self._q_head, len(self._cands))
            if self._q_alive[i]
        ]

    def pop_representative(self) -> Optional[Quaternion]:
        """Hand the most promising remaining candidate to the server.

        Candidates whose feedback-tightened bound has already fallen
        below the threshold are silently skipped (they were pruned
        lazily); ``None`` signals exhaustion.
        """
        self._require_prepared()
        while self._q_head < len(self._cands):
            idx = self._q_head
            self._q_head += 1
            if not self._q_alive[idx]:
                continue  # pruned or deleted earlier; already accounted
            self._q_alive[idx] = False  # consumed either way
            self._q_live -= 1
            cand = self._cands[idx]
            if float(self._q_bounds[idx]) < self.threshold:
                self.pruned_total += 1
                continue
            self._popped_keys.add(cand.tuple.key)
            return Quaternion(
                site=self.site_id,
                tuple=cand.tuple,
                local_probability=cand.local_probability,
            )
        return None

    def queue_size(self) -> int:
        return self._q_live

    def fast_forward(self, keys: Sequence[int]) -> int:
        """Mark candidates as already delivered (failover catch-up).

        After a failover the promoted replica re-runs ``prepare`` and
        holds a fresh, deterministic copy of the failed twin's queue;
        the coordinator then replays *which* representatives were
        already surrendered so the replacement never re-serves them.
        Marked candidates count as consumed, not pruned.  Returns the
        number skipped.
        """
        self._require_prepared()
        wanted = set(keys)
        skipped = 0
        for idx in range(self._q_head, len(self._cands)):
            if self._q_alive[idx] and self._cands[idx].tuple.key in wanted:
                self._q_alive[idx] = False
                self._popped_keys.add(self._cands[idx].tuple.key)
                skipped += 1
        self._q_live -= skipped
        return skipped

    def ship_all(self) -> List[UncertainTuple]:
        """Surrender the whole partition (the §3.2 ship-all baseline)."""
        return list(self.database.values())

    def partition_digest(self) -> str:
        """A deterministic fingerprint of ``D_i`` for replica resync checks.

        Computed site-side; only the hex digest travels the wire, so a
        digest exchange costs zero tuples under the §3.2 metric.
        """
        h = hashlib.sha256()
        for key in sorted(self.database):
            t = self.database[key]
            h.update(repr((t.key, t.values, t.probability)).encode("utf-8"))
        return h.hexdigest()

    def ship_local_skyline(self, threshold: float) -> List[Quaternion]:
        """Surrender the entire qualified local skyline in one burst.

        The §5.1 'important improvement' strawman: compute ``SKY(D_i)``
        and transmit all of it, ordered by descending local skyline
        probability.
        """
        if self._memo is None:
            answer: Iterable[SkylineMember] = self.kernel.skyline(threshold)
        else:
            answer = self._queue_at(threshold).skyline
        return [
            Quaternion(site=self.site_id, tuple=m.tuple, local_probability=m.probability)
            for m in answer
        ]

    # ------------------------------------------------------------------
    # server-delivery + local-pruning phases
    # ------------------------------------------------------------------

    def probe(self, t: UncertainTuple) -> float:
        """Eq. 9: the exact factor this site contributes for foreign ``t``."""
        if self._memo is None:
            return self.kernel.factor(t)
        known = self._memo.factors
        factor = known.get(t)
        if factor is None:
            factor = known[t] = self.kernel.factor(t)
        return factor

    def probe_batch(self, ts: Sequence[UncertainTuple]) -> List[float]:
        """Eq. 9 for many foreign tuples at once (one kernel dispatch, of memo misses)."""
        if self._memo is None:
            return self.kernel.factors(list(ts))
        known = self._memo.factors
        misses = [t for t in dict.fromkeys(ts) if t not in known]
        if misses:
            known.update(zip(misses, self.kernel.factors(misses)))
        return [known[t] for t in ts]

    def apply_feedback(self, t: UncertainTuple) -> int:
        """Local-Pruning phase: expunge candidates the feedback disqualifies.

        Tightens every queued candidate dominated by ``t`` with the
        factor ``(1 − P(t))`` and drops those whose bound sinks below
        ``q``.  Returns the number dropped.  The kernel says which
        candidates ``t`` dominates; the whole queue then tightens in
        one masked multiply.  With pruning disabled the feedback is
        recorded (for update maintenance) but nothing is dropped.
        """
        self._require_prepared()
        self._feedback.append(t)
        if not self.config.feedback_pruning:
            return 0
        if not self._q_live:
            return 0
        if self._memo is None:
            dominated = self.kernel.dominated(t, self._prepared.view, self._q_alive)
        else:
            dominated = self._q_alive & self._prepared.row(self.kernel, t)
        if not dominated.any():
            return 0
        self._q_bounds[dominated] *= 1.0 - t.probability
        dead = dominated & (self._q_bounds < self.threshold)
        pruned = int(dead.sum())
        if pruned:
            self._q_alive[dead] = False
            self._q_live -= pruned
            self.pruned_total += pruned
        return pruned

    def probe_and_prune(self, t: UncertainTuple) -> ProbeReply:
        """The combined Server-Delivery message handler."""
        factor = self.probe(t)
        pruned = self.apply_feedback(t)
        return ProbeReply(
            factor=factor, pruned=pruned, queue_remaining=self.queue_size()
        )

    def probe_and_prune_batch(self, ts: Sequence[UncertainTuple]) -> BatchProbeReply:
        """Batched Server-Delivery: k feedback tuples in, k factors out.

        Factors are Eq. 9 against the stored partition, which feedback
        never mutates — so probing everything first and pruning after is
        exactly equivalent to k sequential :meth:`probe_and_prune`
        calls.
        """
        ts = list(ts)
        factors = self.probe_batch(ts)
        pruned = 0
        for t in ts:
            pruned += self.apply_feedback(t)
        return BatchProbeReply(
            factors=factors, pruned=pruned, queue_remaining=self.queue_size()
        )

    # ------------------------------------------------------------------
    # §5.4 update maintenance hooks
    # ------------------------------------------------------------------

    def contains(self, key: int) -> bool:
        return key in self.database

    def insert_tuple(self, t: UncertainTuple) -> None:
        """Add ``t`` to ``D_i`` (index included); candidacy is handled
        by the maintenance protocol, not here.  A shared site, a
        duplicate key or a dimensionality other than the stored
        tuples' is refused before anything changes."""
        if self._memo is not None:
            raise RuntimeError(f"site {self.site_id} is shared and refuses updates")
        if t.key in self.database:
            raise ValueError(f"tuple {t.key} already stored at site {self.site_id}")
        d = len(next(iter(self.database.values()), t).values)
        if len(t.values) != d:
            raise ValueError(f"tuple {t.key} has dimensionality {len(t.values)}, site stores {d}")
        self.database[t.key] = t
        self.kernel.add(t)

    def delete_tuple(self, key: int) -> UncertainTuple:
        """Remove the tuple with ``key`` from ``D_i`` (index included); a shared site refuses."""
        if self._memo is not None:
            raise RuntimeError(f"site {self.site_id} is shared and refuses updates")
        t = self.database.pop(key, None)
        if t is None:
            raise KeyError(f"tuple {key} not stored at site {self.site_id}")
        self.kernel.remove(t)
        for idx in range(self._q_head, len(self._cands)):
            if self._q_alive[idx] and self._cands[idx].tuple.key == key:
                self._q_alive[idx] = False
                self._q_live -= 1
        return t

    def local_skyline_probability(self, t: UncertainTuple, floor: float = 0.0) -> float:
        """Eq. 3 for a tuple of this site (includes its own P(t)).

        With a nonzero ``floor`` the value is exact whenever it is ≥
        ``floor`` and otherwise merely guaranteed below it — the usual
        threshold-test contract.
        """
        if t.probability <= 0.0:
            return 0.0
        inner_floor = floor / t.probability if floor > 0.0 else 0.0
        return t.probability * self.kernel.factor(t, floor=inner_floor)

    def dominated_local_candidates(
        self,
        t: UncertainTuple,
        threshold: float,
        pruners: Optional[List[UncertainTuple]] = None,
    ) -> List["tuple[UncertainTuple, float]"]:
        """Local tuples dominated by ``t`` whose local probability reaches ``q``.

        The §5.4 delete path needs exactly these: when a dominating
        tuple disappears somewhere, only locally-qualified tuples it
        dominated can newly qualify globally.  Returns ``(tuple,
        local_probability)`` pairs.

        ``pruners`` (typically the current SKY(H) replica contents)
        cheapen the scan enormously: any tuple whose existential
        probability, multiplied by the non-occurrence of the pruners
        dominating it, already misses ``q`` can be skipped before the
        exact (and comparatively expensive) index probe — each pruner
        is a real stored tuple somewhere, so the product is a sound
        upper bound on the global probability.  On uniform data a
        random deleted tuple dominates ``N/2^d`` others; without the
        precheck every one of them would be probed.
        """
        out = []
        for s in self.database.values():
            if s.key == t.key or s.probability < threshold:
                continue
            if not dominates(t, s, self.preference):
                continue
            if pruners is not None:
                bound = feedback_pruning_bound(
                    s.probability,
                    (
                        f
                        for f in pruners
                        if f.key != s.key and dominates(f, s, self.preference)
                    ),
                    floor=threshold,
                )
                if bound < threshold:
                    continue
            p = self.local_skyline_probability(s, floor=threshold)
            if p >= threshold:
                out.append((s, p))
        return out

    def set_replica(self, entries: Dict[int, "tuple[UncertainTuple, float]"]) -> None:
        """Install the coordinator's SKY(H) replica (§5.4 bootstrap)."""
        self.sky_h_replica = dict(entries)

    def replica_dominators(self, t: UncertainTuple) -> List[UncertainTuple]:
        """Replicated global results dominating ``t`` (§5.4 insert check)."""
        return [
            other
            for other, _prob in self.sky_h_replica.values()
            if other.key != t.key and dominates(other, t, self.preference)
        ]

    def _require_prepared(self) -> None:
        if self.threshold is None:
            raise RuntimeError(
                f"site {self.site_id} used before prepare(); call prepare(q) first"
            )
