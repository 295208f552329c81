"""The skylint rule registry.

Every rule family lives in its own module; :data:`RULES` is the one
ordered registry — the per-module rules, then the whole-program
(SKY6xx) family.  The CLI and the self-check test run it whole; each
invariant is checked by exactly one rule.
"""

from __future__ import annotations

from typing import Dict, List

from ..framework import Rule
from .asyncio_discipline import AsyncioDisciplineRule
from .determinism import UnseededRandomRule, WallClockRule
from .interprocedural import (
    InterproceduralBillingRule,
    LedgerSymmetryRule,
    SeedProvenanceRule,
    TransitiveBlockingRule,
)
from .probability import FloatEqualityRule, RawNonOccurrenceProductRule
from .protocol import EmissionDisciplineRule
from .rpc import RpcDisciplineRule

__all__ = ["RULES", "rules_by_id"]

RULES: List[Rule] = [
    EmissionDisciplineRule(),
    UnseededRandomRule(),
    WallClockRule(),
    FloatEqualityRule(),
    RawNonOccurrenceProductRule(),
    RpcDisciplineRule(),
    AsyncioDisciplineRule(),
    TransitiveBlockingRule(),
    InterproceduralBillingRule(),
    LedgerSymmetryRule(),
    SeedProvenanceRule(),
]


def rules_by_id() -> Dict[str, Rule]:
    return {rule.id: rule for rule in RULES}
