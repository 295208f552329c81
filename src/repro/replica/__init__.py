"""Partition replication: buddy placement, sync, and failover supply.

The fault subsystem (:mod:`repro.fault`) keeps a query *sound* when a
site dies — Corollary-1 upper bounds, degraded supersets — but Lemma 1
needs every site's Eq.-9 factor to stay *exact*.  This package closes
that gap: every partition ``D_i`` is copied onto
``replication_factor - 1`` buddy hosts chosen by a seed-deterministic
ring placement (:mod:`~repro.replica.placement`), kept consistent by
write-forwarding plus anti-entropy digest exchange
(:class:`~repro.replica.manager.ReplicaManager`), and served to the
coordinator as a drop-in replacement endpoint when the primary goes
DOWN — so a query under chaos returns the fault-free answer instead of
a degraded one.  A logical site fails over once per query, to its first
buddy; further copies are provisioned and write-forwarded, but serve
only once replicas become faultable endpoints of their own.
"""

from .manager import ReplicaManager
from .placement import assign_buddies

__all__ = ["ReplicaManager", "assign_buddies"]
