"""The site-side engine of the continuous-query subsystem.

A :class:`StreamSite` wraps one sliding :class:`~repro.stream.windows.Window`
of uncertain stream arrivals and, per registered *preference group*
(all standing queries sharing one dominance preference), a standing
:class:`~repro.distributed.site.LocalSite` whose database always equals
the live window contents in arrival order.  Inserts and expiries route
through :meth:`LocalSite.insert_tuple` / :meth:`LocalSite.delete_tuple`,
the §5.4 update hooks, so the site's kernel hears of every change.

At every epoch boundary the coordinator asks each site for a
:class:`StreamDigest` — the site's **edge pre-filter** output (after
arXiv 2008.07159's edge-side candidate reduction):

* only tuples whose *local* skyline probability reaches the group's
  minimum registered threshold are candidates at all — anything below
  ``q_min`` provably cannot enter any registered query's result, and
  is suppressed without ever touching the wire;
* a candidate ships its full tuple exactly once (``entered``); later
  local re-scores travel as key + probability (``rescored``, zero
  tuples under the paper's §3.2 bandwidth metric);
* the replicated foreign candidates are probed as one batch, and a
  factor is pushed only when its value actually changed (``factors``)
  — quiet windows cost nothing.

The default streaming :class:`~repro.distributed.site.SiteConfig`
(columnar, unindexed) recomputes local skylines and probes directly
from the window contents, one column store per window change, which
makes every digest value bit-identical to what a fresh site built over
the same live tuples would compute — the property the
epoch-equivalence suite pins end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.dominance import Preference
from ..core.tuples import UncertainTuple
from ..distributed.site import LocalSite, SiteConfig
from .windows import Window

__all__ = ["StreamDigest", "StreamSite", "streaming_site_config"]


def streaming_site_config() -> SiteConfig:
    """The default per-window engine configuration.

    Columnar and unindexed: every local skyline / probe is recomputed
    from the live window contents (lazily, cached until the next
    update), so digests are pure functions of the window — the
    bit-identity contract needs nothing else.
    """
    return SiteConfig(kernel="columnar")


@dataclass
class StreamDigest:
    """One site's epoch delta for one preference group.

    ``entered`` bears one tuple each on the wire; ``rescored``,
    ``departed`` and ``factors`` are scalar traffic (zero tuples under
    the §3.2 metric).
    """

    site_id: int
    entered: List[Tuple[UncertainTuple, float]] = field(default_factory=list)
    rescored: List[Tuple[int, float]] = field(default_factory=list)
    departed: List[int] = field(default_factory=list)
    factors: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (self.entered or self.rescored or self.departed or self.factors)


@dataclass
class _Group:
    """Per-preference-group standing state at one site."""

    threshold: float
    preference: Optional[Preference]
    engine: LocalSite
    #: key -> local skyline probability last shipped to the coordinator.
    shipped: Dict[int, float] = field(default_factory=dict)
    #: Foreign candidates replicated down by the coordinator.
    replicas: Dict[int, UncertainTuple] = field(default_factory=dict)
    #: key -> the probe factor last pushed for that replica.
    factors: Dict[int, float] = field(default_factory=dict)


class StreamSite:
    """One stream participant: a window plus per-group standing engines."""

    def __init__(
        self,
        site_id: int,
        window: Window,
        site_config: Optional[SiteConfig] = None,
    ) -> None:
        self.site_id = site_id
        self.window = window
        self.config = site_config or streaming_site_config()
        self._groups: Dict[int, _Group] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    # the data plane: stream arrivals are local, never billed
    # ------------------------------------------------------------------

    def ingest(self, t: UncertainTuple, stamp: Optional[float] = None) -> None:
        """Admit one arrival; expiries it forces are applied first."""
        if stamp is None:
            stamp = float(self._seq)
        self._seq += 1
        evicted = self.window.push(t, stamp)
        for group in self._groups.values():
            for old in evicted:
                group.engine.delete_tuple(old.key)
            group.engine.insert_tuple(t)

    def advance(self, now: float) -> None:
        """Let time pass: expire without an arrival."""
        evicted = self.window.advance(now)
        for group in self._groups.values():
            for old in evicted:
                group.engine.delete_tuple(old.key)

    def live_tuples(self) -> List[UncertainTuple]:
        """The currently windowed tuples, in arrival order."""
        return self.window.live()

    # ------------------------------------------------------------------
    # the control plane: RPCs the ContinuousCoordinator issues
    # ------------------------------------------------------------------

    def register_group(
        self,
        group_id: int,
        threshold: float,
        preference: Optional[Preference] = None,
    ) -> None:
        """Create (or re-threshold) one preference group's engine.

        ``threshold`` is the group's minimum registered query threshold
        ``q_min`` — the edge pre-filter's suppression bound.  A fresh
        group seeds its engine from the current window contents, so
        mid-stream registrations see exactly the live state.
        """
        existing = self._groups.get(group_id)
        if existing is not None:
            existing.threshold = threshold
            return
        engine = LocalSite(
            site_id=self.site_id,
            database=self.window.live(),
            preference=preference,
            config=self.config,
        )
        self._groups[group_id] = _Group(
            threshold=threshold, preference=preference, engine=engine
        )

    def drop_group(self, group_id: int) -> None:
        """Forget one preference group entirely."""
        self._groups.pop(group_id, None)

    def close_epoch(self, group_id: int) -> StreamDigest:
        """The edge pre-filter: everything this epoch changed, nothing else."""
        group = self._groups[group_id]
        digest = StreamDigest(site_id=self.site_id)
        local: Dict[int, float] = {
            q.key: q.local_probability
            for q in group.engine.ship_local_skyline(group.threshold)
        }
        tuples = group.engine.database
        for key in sorted(local):
            probability = local[key]
            previous = group.shipped.get(key)
            if previous is None:
                digest.entered.append((tuples[key], probability))
            elif previous != probability:
                digest.rescored.append((key, probability))
        digest.departed = sorted(k for k in group.shipped if k not in local)
        group.shipped = local
        keys = sorted(group.replicas)
        probes = group.engine.probe_batch([group.replicas[key] for key in keys])
        for key, factor in zip(keys, probes):
            if group.factors.get(key) != factor:  # skylint: ignore[SKY301] bitwise on purpose: the exactness contract pushes a factor iff its bits changed
                group.factors[key] = factor
                digest.factors.append((key, factor))
        return digest

    def sync_candidates(
        self,
        group_id: int,
        entries: Sequence[UncertainTuple],
        removed: Sequence[int] = (),
    ) -> List[Tuple[int, float]]:
        """Install foreign candidate replicas; returns their probe factors.

        The coordinator calls this after collecting digests: newly
        entered candidates from *other* sites come down (one tuple each
        on the wire), candidates that departed anywhere are dropped,
        and the reply carries this site's initial Eq. 9 factor for each
        new entry (scalar traffic).
        """
        group = self._groups[group_id]
        for key in removed:
            group.replicas.pop(key, None)
            group.factors.pop(key, None)
        factors = group.engine.probe_batch(entries)
        for t, factor in zip(entries, factors):
            group.replicas[t.key] = t
            group.factors[t.key] = factor
        return [(t.key, factor) for t, factor in zip(entries, factors)]
