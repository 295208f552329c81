"""Closed-form skyline-probability arithmetic (Eqs. 3, 5, 9–12).

Everything the DSUD/e-DSUD machinery needs to manipulate skyline
probabilities lives here, in one dependency-free module:

* :func:`non_occurrence_product` — ``∏ (1 − P(t'))`` over the tuples
  that dominate a target, with optional early exit once the running
  product falls below a floor (the pruning trick every threshold
  algorithm in the paper relies on).
* :func:`skyline_probability` — Eq. 3, a tuple's skyline probability
  within its *own* database (includes the ``P(t)`` factor).
* :func:`foreign_skyline_probability` — Eq. 9 / Observation 1, the
  factor a database contributes for a tuple it does *not* contain.
* :func:`combine_site_factors` — Lemma 1: the global skyline
  probability is the product of per-site factors.
* :func:`observation2_bound` and :func:`corollary2_bound` — the
  zero-bandwidth upper bounds that power e-DSUD's feedback selection.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .dominance import Preference, dominates
from .tuples import UncertainTuple

__all__ = [
    "non_occurrence_product",
    "skyline_probability",
    "foreign_skyline_probability",
    "global_skyline_probability",
    "combine_site_factors",
    "feedback_pruning_bound",
    "observation2_bound",
    "corollary2_bound",
]


def non_occurrence_product(
    target: UncertainTuple,
    database: Iterable[UncertainTuple],
    preference: Optional[Preference] = None,
    floor: float = 0.0,
) -> float:
    """``∏_{t' ∈ database, t' ≺ target} (1 − P(t'))``.

    ``floor`` enables early termination: once the running product drops
    below it the exact value can no longer matter to a threshold test,
    so the current (upper-bounding) partial product is returned
    immediately.  Callers comparing against a threshold ``q`` pass
    ``floor=q``; callers needing the exact value keep the default 0.
    """
    product = 1.0
    for t in database:
        if t.key == target.key:
            continue
        if dominates(t, target, preference):
            product *= 1.0 - t.probability
            if product < floor:
                return product
    return product


def skyline_probability(
    target: UncertainTuple,
    database: Iterable[UncertainTuple],
    preference: Optional[Preference] = None,
    floor: float = 0.0,
) -> float:
    """Eq. 3: ``P_sky(t, D) = P(t) × ∏_{t'∈D, t'≺t}(1 − P(t'))``.

    ``database`` may or may not physically contain ``target``; the
    target itself is skipped by key, so passing the full relation is
    always safe.  With a nonzero ``floor`` the result is exact whenever
    it is ≥ ``floor`` and otherwise merely guaranteed to be < ``floor``.
    """
    if target.probability <= 0.0:
        return 0.0
    inner_floor = floor / target.probability if floor > 0.0 else 0.0
    return target.probability * non_occurrence_product(
        target, database, preference, floor=inner_floor
    )


def foreign_skyline_probability(
    target: UncertainTuple,
    database: Iterable[UncertainTuple],
    preference: Optional[Preference] = None,
    floor: float = 0.0,
) -> float:
    """Eq. 9 / Observation 1: the factor of a database not owning ``target``.

    Identical to :func:`non_occurrence_product`; the separate name
    mirrors the paper's notation ``P_sky(t_ij, D_x)`` for ``x ≠ i`` and
    keeps call sites self-documenting.
    """
    return non_occurrence_product(target, database, preference, floor=floor)


def global_skyline_probability(
    target: UncertainTuple,
    databases: Sequence[Sequence[UncertainTuple]],
    preference: Optional[Preference] = None,
) -> float:
    """Eq. 4/5 evaluated directly over the partitioned databases.

    The reference implementation of the *definition* — the distributed
    algorithms must agree with this (Lemma 1 guarantees they do).
    """
    product = target.probability
    for db in databases:
        product *= non_occurrence_product(target, db, preference)
    return product


def combine_site_factors(own_factor: float, foreign_factors: Iterable[float]) -> float:
    """Lemma 1: ``P_g-sky(t) = P_sky(t, D_i) × ∏_{x≠i} P_sky(t, D_x)``."""
    product = own_factor
    for f in foreign_factors:
        product *= f
    return product


def feedback_pruning_bound(
    candidate_local_probability: float,
    dominating_feedback: Iterable[UncertainTuple],
    floor: float = 0.0,
) -> float:
    """Upper bound used by the Local-Pruning phase.

    A site holding candidate ``s`` with own-site probability
    ``P_sky(s, D_x)`` that has received feedback tuples ``F`` (all from
    *other* sites) knows

        P_g-sky(s) ≤ P_sky(s, D_x) × ∏_{f ∈ F, f ≺ s} (1 − P(f))

    because each dominating foreign feedback tuple contributes its
    non-occurrence factor to some other site's term in Lemma 1.  The
    caller is responsible for passing only the feedback tuples that
    dominate ``s``.  A nonzero ``floor`` (typically the threshold
    ``q``) stops the accumulation as soon as the bound provably fails
    it; the returned partial product is still a valid upper bound.
    """
    bound = candidate_local_probability
    for f in dominating_feedback:
        bound *= 1.0 - f.probability
        if bound < floor:
            return bound
    return bound


def observation2_bound(
    dominator_local_probability: float, dominator_existential: float
) -> float:
    """Observation 2: bound on ``P_sky(s, D_x)`` given a dominator from ``D_x``.

    If tuple ``t ∈ D_x`` with own-site probability
    ``P_sky(t, D_x) = dominator_local_probability`` and existential
    probability ``P(t) = dominator_existential`` dominates ``s``, then

        P_sky(s, D_x) ≤ P_sky(t, D_x) / P(t) × (1 − P(t))

    — ``s`` inherits every dominator of ``t`` (transitivity) plus ``t``
    itself, and dropping the remaining ``s``-only dominators only
    loosens the bound.
    """
    if dominator_existential <= 0.0:
        raise ValueError("dominator existential probability must be positive")
    return (
        dominator_local_probability / dominator_existential
    ) * (1.0 - dominator_existential)


def corollary2_bound(
    candidate: UncertainTuple,
    candidate_site: int,
    candidate_local_probability: float,
    server_resident: Iterable[tuple],
    preference: Optional[Preference] = None,
) -> float:
    """Corollary 2: the approximate global bound ``P*_g-sky(s)``.

    ``server_resident`` iterates the quaternions currently known to the
    coordinator as ``(tuple, site, local_probability)`` triples.  Every
    resident tuple from a *different* site that dominates the candidate
    tightens the bound by its Observation-2 factor.  At most one
    dominator per foreign site may be applied — Lemma 1 has a single
    ``P_sky(s, D_x)`` term per site — so the tightest available
    dominator per site is used.
    """
    best_per_site: dict = {}
    for t, site, local_prob in server_resident:
        if site == candidate_site or t.key == candidate.key:
            continue
        if dominates(t, candidate, preference):
            factor = observation2_bound(local_prob, t.probability)
            prev = best_per_site.get(site)
            if prev is None or factor < prev:
                best_per_site[site] = factor
    bound = candidate_local_probability
    for factor in best_per_site.values():
        bound *= factor
    return bound
