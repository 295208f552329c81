"""Partition replication: buddy placement, sync, and failover supply.

The fault subsystem (:mod:`repro.fault`) keeps a query *sound* when a
site dies — Corollary-1 upper bounds, degraded supersets — but Lemma 1
needs every site's Eq.-9 factor to stay *exact*.  This package closes
that gap: every partition ``D_i`` is copied onto
``replication_factor - 1`` buddy hosts chosen by a seed-deterministic
ring placement (:mod:`~repro.replica.placement`), kept consistent by
write-forwarding (:class:`~repro.replica.manager.ReplicaManager`), and
held as a placement-ordered list of ready endpoints per logical site.
When the serving endpoint goes DOWN, the coordinator promotes the next
unused buddy on that list — so a query under chaos returns the
fault-free answer instead of a degraded one, through as many failovers
per logical site as it has buddies.
"""

from .manager import ReplicaManager
from .placement import assign_buddies

__all__ = ["ReplicaManager", "assign_buddies"]
