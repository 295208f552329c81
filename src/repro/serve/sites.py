"""Shared site state: standing partitions serving many queries at once.

A solo :func:`~repro.distributed.query.distributed_skyline` call builds
fresh :class:`~repro.distributed.site.LocalSite`\\ s, runs one query, and
throws everything away.  A service cannot: the partitions, PR-trees,
and local skylines are the expensive standing state, while each query
only needs its own *candidate queue* over them.

* :class:`SharedSiteHost` owns one partition and hands out per-session
  :meth:`~repro.distributed.site.LocalSite.fork` views.  Templates are
  cached per :class:`~repro.core.dominance.Preference` (dominance
  direction/subspace changes the index and the local skyline), and
  its forks share one template memo — so N concurrent sessions at the
  same threshold cost one local skyline, and one probe of each tuple.
* :class:`StandingReplicaBook` plays the same trick for replication:
  instead of re-shipping every partition to its buddies per query, a
  session's :class:`~repro.replica.manager.ReplicaManager` is built
  over forks of the host templates — ready replicas, nothing to ship.
  Placement and replica contents are bit-identical to
  :meth:`~repro.replica.manager.ReplicaManager.provision` (a solo
  replica is built from ``primary.ship_all()`` — the same tuples, in
  the same order, as the host template), and solo provisioning bills
  the manager's *standing* book, never the query, so query-visible
  accounting does not change.

§5.4 maintenance writes a host's partition, the one written copy of
D_i, and drops its templates; the next view builds a fresh one.  Forks
and templates refuse writes, so a session (replica forks included)
reads the partition it was forked from.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.dominance import Preference
from ..core.tuples import UncertainTuple, validate_database
from ..distributed.site import LocalSite, SiteConfig
from ..net.transport import SiteEndpoint
from ..replica.manager import ReplicaManager
from ..replica.placement import assign_buddies

__all__ = ["SharedSiteHost", "StandingReplicaBook"]


class SharedSiteHost:
    """One standing partition D_i; a fork factory for sessions."""

    def __init__(
        self,
        site_id: int,
        partition: Sequence[UncertainTuple],
        site_config: Optional[SiteConfig] = None,
    ) -> None:
        self.site_id = site_id
        self._partition = list(partition)
        self.site_config = site_config
        self._templates: Dict[Optional[Preference], LocalSite] = {}
        #: Observability: forks handed out, and templates (index +
        #: memo) standing now.
        self.forks_served = 0

    def __len__(self) -> int:
        return len(self._partition)

    @property
    def templates_built(self) -> int:
        return len(self._templates)

    def template(self, preference: Optional[Preference] = None) -> LocalSite:
        """The standing site for one dominance preference (built once per write).

        Bit-identical to ``LocalSite(site_id, partition, preference,
        config)`` — the constructor a solo run uses.  Its first fork
        adds the template memo, which never changes an answer, only
        skips recomputation, and goes with the template on a write.
        """
        site = self._templates.get(preference)
        if site is None:
            site = LocalSite(
                self.site_id,
                self._partition,
                preference=preference,
                config=self.site_config,
            )
            self._templates[preference] = site
        return site

    def view(self, preference: Optional[Preference] = None) -> LocalSite:
        """A fresh per-session fork over the standing template."""
        self.forks_served += 1
        return self.template(preference).fork()

    def apply_insert(self, t: UncertainTuple) -> None:
        """§5.4 insert for the next :meth:`view`; a duplicate key or a wrong
        dimensionality raises ``ValueError`` before anything changes."""
        validate_database(self._partition + [t])
        self._partition.append(t)
        self._templates.clear()

    def apply_delete(self, key: int) -> None:
        """§5.4 delete; an absent ``key`` raises ``KeyError`` before anything changes."""
        kept = [t for t in self._partition if t.key != key]
        if len(kept) == len(self._partition):
            raise KeyError(f"tuple {key} not stored at site {self.site_id}")
        self._partition = kept
        self._templates.clear()


class StandingReplicaBook:
    """Pre-provisioned replicas, reused across every session's manager.

    A solo replicated run ships each partition to its buddies once per
    query.  The book amortizes that: a session gets a normal
    :class:`ReplicaManager` (the same :func:`assign_buddies` placement,
    so the same ``replica-i@site-j`` wire names) built over
    forks of the standing host templates — already provisioned, so its
    standing book stays empty.  The query-side books cannot tell the
    difference, because solo provisioning never bills the query.
    """

    def __init__(self, hosts: Sequence[SharedSiteHost]) -> None:
        self._hosts = {host.site_id: host for host in hosts}
        self.managers_issued = 0

    def manager_for(
        self,
        session_sites: Sequence[SiteEndpoint],
        replication_factor: int,
        preference: Optional[Preference] = None,
    ) -> ReplicaManager:
        """A per-session manager over pre-provisioned replica forks."""
        placement = assign_buddies((s.site_id for s in session_sites), replication_factor)
        replicas: Dict[int, List[Tuple[int, LocalSite]]] = {}
        for sid in sorted(placement):
            template = self._hosts[sid].template(preference)
            replicas[sid] = [(buddy, template.fork()) for buddy in placement[sid]]
        self.managers_issued += 1
        return ReplicaManager(replicas)
