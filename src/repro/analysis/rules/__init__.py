"""The skylint rule registry.

Every rule family lives in its own module; :data:`ALL_RULES` is the
canonical ordered registry of per-module rules and
:data:`PROGRAM_RULES` the whole-program (SKY6xx) family.  The CLI and
the self-check tests run both; each invariant is checked by exactly
one rule.
"""

from __future__ import annotations

from typing import Dict, List

from ..callgraph import ProgramRule
from ..framework import Rule
from .asyncio_discipline import AsyncioDisciplineRule
from .concurrency import ProcessSharedStateRule
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

__all__ = ["ALL_RULES", "PROGRAM_RULES", "rules_by_id"]

ALL_RULES: List[Rule] = [
    EmissionDisciplineRule(),
    UnseededRandomRule(),
    WallClockRule(),
    FloatEqualityRule(),
    RawNonOccurrenceProductRule(),
    RpcDisciplineRule(),
    ProcessSharedStateRule(),
    AsyncioDisciplineRule(),
]

PROGRAM_RULES: List[ProgramRule] = [
    TransitiveBlockingRule(),
    InterproceduralBillingRule(),
    LedgerSymmetryRule(),
    SeedProvenanceRule(),
]


def rules_by_id() -> Dict[str, Rule]:
    rules: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
    rules.update({rule.id: rule for rule in PROGRAM_RULES})
    return rules
