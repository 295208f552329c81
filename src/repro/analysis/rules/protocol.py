"""SKY102 — emission-discipline: results leave through the coverage-aware
funnel.

Under ``limit=`` a resolved tuple's probability may be a mere
Corollary-1 *upper bound* (a site was DOWN during its broadcast); the
``Coordinator.emit`` funnel buffers it with its live ``TupleCoverage``
so reintegration re-scores it before release, and ``drain_topk`` caps
early stop by what a DOWN site could still surface.  A run loop that
calls ``self.report(...)`` or ``buffer.offer(...)`` directly freezes
the bound at offer time and reintroduces the chaos × ``limit=``
unsoundness this machinery exists to close.  Passing ``self.report``
*as a callback* (the drain path) stays legal — only direct calls
outside ``emit`` are flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..callgraph import Program
from ..framework import Finding, ModuleContext, Rule, Severity, dotted_name

__all__ = ["EmissionDisciplineRule"]

#: The only Coordinator method allowed to invoke report/offer directly —
#: it is the coverage-aware funnel itself.
EMISSION_FUNNEL = frozenset({"emit"})


class EmissionDisciplineRule(Rule):
    id = "SKY102"
    name = "emission-discipline"
    severity = Severity.ERROR
    description = (
        "Progressive emission outside the coverage-aware funnel: a direct "
        "self.report(...) / buffer.offer(...) in a Coordinator freezes a "
        "possibly degraded (Corollary-1 upper bound) probability at offer "
        "time, bypassing the TopKBuffer/CoverageTracker re-scoring that "
        "keeps limit= queries sound under site failures."
    )

    def applies_to(self, module: ModuleContext) -> bool:
        return "distributed/" in module.relpath

    def check(self, module: ModuleContext, program: Program) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "report":
                # Only the coordinator's own report — `self.coverage
                # .report(...)` / `self.progress.report(...)` are
                # bookkeeping reads, not client emission.
                if dotted_name(func.value) != "self":
                    continue
                offence = "self.report(...)"
            elif func.attr == "offer":
                offence = f"`{dotted_name(func.value)}.offer(...)`"
            else:
                continue
            cls = module.enclosing_class(node)
            if cls is None or not program.inherits_from(cls.name, "Coordinator"):
                continue
            enclosing = module.enclosing_function(node)
            if enclosing is not None and enclosing.name in EMISSION_FUNNEL:
                continue
            yield module.finding(
                self,
                node,
                f"{offence} bypasses the coverage-aware emission funnel; "
                "route resolved candidates through `self.emit(t, p)` (and "
                "`self.drain_topk(...)` / `self.finish_topk()` for limit= "
                "release) so degraded bounds re-score before release",
            )
