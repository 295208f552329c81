"""The :class:`ReplicaManager`: a list of ready replica endpoints per site.

For each logical site the manager holds a placement-ordered list of
``(buddy host, endpoint)`` pairs, ready from construction on.  The
coordinator walks that list when the site goes DOWN (one failover per
unused buddy); the manager keeps only what outlives a query:

* **provisioning** — :meth:`ReplicaManager.provision` ships each
  partition to its buddies (placement per :mod:`~repro.replica.placement`)
  as in-process :class:`~repro.distributed.site.LocalSite` copies; the
  serving layer's :class:`~repro.serve.sites.StandingReplicaBook` hands
  the constructor forks of its standing templates instead;
* **write-forwarding** — :meth:`~ReplicaManager.forward_insert` /
  :meth:`~ReplicaManager.forward_delete` keep every copy in step with
  §5.4 maintenance.  A book-issued manager's copies are forks, which
  refuse writes: nothing is written and nothing billed;
* **resync** — :meth:`~ReplicaManager.resync` converges one endpoint's
  partition onto another's: the failback prelude.

Accounting (skylint SKY602): provisioning and forwarded writes bill the
manager's standing book :attr:`~ReplicaManager.stats` — a data-placement
cost amortised across queries, never a query's — while a resync bills
the book its caller hands it.  Shipments are tuple-bearing
``REPLICA_SYNC``, digest exchanges zero-tuple ``DIGEST``.

There is no stand-alone anti-entropy sweep.  What is lost: drift
between a primary and its copies is found only when a failback runs the
same ``DIGEST`` + diff exchange, never on a healthy cluster.

A replica is whatever endpoint the manager was handed, so "the buddy
died too" is a fault schedule on that endpoint, not new code.  The
copies :meth:`~ReplicaManager.provision` builds are plain in-process
sites, out of reach of the schedule gating their primary: the buddy
host survives the primary's crash.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.dominance import Preference
from ..core.tuples import UncertainTuple
from ..distributed.site import LocalSite, SiteConfig
from ..net.message import MessageKind
from ..net.stats import NetworkStats
from ..net.transport import SiteEndpoint
from .placement import assign_buddies

__all__ = ["ReplicaManager"]

#: logical site id → ``[(buddy host id, replica endpoint)]``.
Replicas = Mapping[int, Sequence[Tuple[int, SiteEndpoint]]]


def _replica_name(site_id: int, host: int) -> str:
    return f"replica-{site_id}@site-{host}"


class ReplicaManager:
    """The replica set of one cluster, and the writes that keep it exact."""

    def __init__(self, replicas: Replicas) -> None:
        #: Per logical site, its replicas in placement order — the order
        #: the coordinator fails over in.
        self.replicas: Dict[int, List[Tuple[int, SiteEndpoint]]] = {
            sid: list(pairs) for sid, pairs in replicas.items()
        }
        #: The standing book: provisioning and forwarded writes.
        self.stats = NetworkStats()

    @classmethod
    def provision(
        cls,
        sites: Sequence[SiteEndpoint],
        replication_factor: int,
        preference: Optional[Preference] = None,
        site_config: Optional[SiteConfig] = None,
    ) -> "ReplicaManager":
        """Copy every partition onto its buddies, billed to a new standing book.

        Provisioning rides ``ship_all``: the primary surrenders its
        partition once per buddy, billed as one ``REPLICA_SYNC``
        bearing ``|D_i|`` tuples — the §3.2 cost of placing a copy.
        """
        primaries = {s.site_id: s for s in sites}
        if len(primaries) < len(sites):  # two partitions would merge into one
            ids = [s.site_id for s in sites]
            raise ValueError(f"duplicate site id {next(i for i in ids if ids.count(i) > 1)!r}")
        placement = assign_buddies(primaries, replication_factor)
        manager = cls({})
        for sid, hosts in sorted(placement.items()):
            if not hosts:
                continue
            data = list(primaries[sid].ship_all())
            for host in hosts:
                manager.stats.bill(
                    MessageKind.REPLICA_SYNC, f"site-{sid}", _replica_name(sid, host),
                    tuples=len(data),
                )
            manager.replicas[sid] = [
                (host, LocalSite(sid, data, preference=preference, config=site_config))
                for host in hosts
            ]
            manager.stats.record_round(tuples_in_round=len(data) * len(hosts))
        return manager

    # ------------------------------------------------------------------
    # write-forwarding (§5.4 maintenance stays replica-consistent)
    # ------------------------------------------------------------------

    def forward_insert(self, site_id: int, t: UncertainTuple) -> None:
        """Apply one §5.4 insert to every replica of ``site_id``.

        One tuple-bearing ``REPLICA_SYNC`` per copy — the forwarded
        write is real wide-area traffic — billed once the copy took it.
        """
        for host, replica in self.replicas.get(site_id, []):
            replica.insert_tuple(t)
            self.stats.bill(
                MessageKind.REPLICA_SYNC, f"site-{site_id}", _replica_name(site_id, host),
                tuples=1,
            )

    def forward_delete(self, site_id: int, key: int) -> None:
        """Apply one §5.4 delete to every replica of ``site_id``.

        Key-only, so zero tuples under the §3.2 metric — but still a
        billed ``REPLICA_SYNC`` message: a failover must never
        resurrect a deleted tuple.
        """
        for host, replica in self.replicas.get(site_id, []):
            replica.delete_tuple(key)
            self.stats.bill(
                MessageKind.REPLICA_SYNC, f"site-{site_id}", _replica_name(site_id, host),
                tuples=0,
            )

    # ------------------------------------------------------------------
    # resync
    # ------------------------------------------------------------------

    def _name(self, site_id: int, endpoint: SiteEndpoint) -> str:
        for host, replica in self.replicas.get(site_id, []):
            if replica is endpoint:
                return _replica_name(site_id, host)
        return f"site-{site_id}"

    def resync(
        self,
        site_id: int,
        source: SiteEndpoint,
        target: SiteEndpoint,
        stats: NetworkStats,
    ) -> bool:
        """Converge ``target``'s copy of ``D_site_id`` onto ``source``'s.

        The partition fingerprints cross as two zero-tuple ``DIGEST``
        messages; only on a mismatch does the diff ship — deletions as
        keys (zero tuples), inserted or changed tuples bearing their
        §3.2 cost in one ``REPLICA_SYNC``.  Everything bills ``stats``.
        Returns True when ``target`` had drifted and was repaired.
        """
        source_name, target_name = self._name(site_id, source), self._name(site_id, target)
        stats.bill(MessageKind.DIGEST, source_name, target_name)
        stats.bill(MessageKind.DIGEST, target_name, source_name)
        if source.partition_digest() == target.partition_digest():
            return False
        want = {t.key: t for t in source.ship_all()}
        have = {t.key: t for t in target.ship_all()}
        for key in sorted(have.keys() - want.keys()):
            target.delete_tuple(key)
        changed = [want[key] for key in sorted(want) if have.get(key) != want[key]]
        for t in changed:
            if t.key in have:
                target.delete_tuple(t.key)
            target.insert_tuple(t)
        stats.bill(MessageKind.REPLICA_SYNC, source_name, target_name, tuples=len(changed))
        stats.record_round(tuples_in_round=len(changed))
        return True
