"""SKY301/SKY302 — probability-safety: no float-equality, no raw ∏(1−P).

The paper's arithmetic is a web of non-occurrence products: Eq. 3
(``P_sky = P(t)·∏(1−P(t'))``), Eq. 9 (the foreign-site factor), the
Local-Pruning bound, Lemma 1's cross-site combination.
:mod:`repro.core.probability` implements each exactly once, with the
floor-based early exit every threshold test depends on.  Ad-hoc copies
are where correctness drifts (arXiv:2303.00259 documents exactly this
failure mode for restricted-skyline code): a re-rolled loop product
associates differently, forgets the self-key exclusion, or loses the
floor semantics.

* **SKY301** flags ``==``/``!=`` between probability-typed float
  expressions — threshold logic must use ``<``/``>=`` (or an explicit
  tolerance), never exact float equality.
* **SKY302** flags loop products over ``(1 − P)`` terms — an
  ``*=``-accumulation inside a loop, or ``math.prod``/``np.prod`` over
  ``1 - p`` elements — outside the blessed helper module.  Vectorised
  kernels (``core/kernels.py``) and the §6 index traversals are exempt:
  they implement Eq. 9 over column masks / subtree aggregates that the
  flat helpers cannot express, and the exactness suite diffs them
  against the helpers directly.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..callgraph import Program
from ..framework import Finding, ModuleContext, Rule, Severity, dotted_name

__all__ = ["FloatEqualityRule", "RawNonOccurrenceProductRule"]

#: Identifier fragments that mark an expression as probability-valued.
_PROB_MARKERS = ("prob", "factor", "likelihood", "p_sky", "psky")

#: Modules allowed to spell the arithmetic out directly.
_EXEMPT_PARTS = (
    "core/probability.py",   # the helpers themselves
    "core/kernels.py",       # vectorised column kernels (diffed vs helpers)
    "core/tuples.py",        # the (1 − P) accessor definition
    "index/",                # §6 tree traversals over subtree aggregates
)


def _probability_typed(node: ast.AST) -> bool:
    """Heuristic: does this expression smell like a probability?"""
    for sub in ast.walk(node):
        name = ""
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        lowered = name.lower()
        if any(marker in lowered for marker in _PROB_MARKERS):
            return True
    return False


def _is_float_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _is_one_minus_probability(node: ast.AST) -> bool:
    """Matches ``1 - <probability expr>`` / ``1.0 - <probability expr>``."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.left, ast.Constant)
        and node.left.value in (1, 1.0)
        and _probability_typed(node.right)
    )


def _contains_one_minus_probability(node: ast.AST) -> bool:
    return any(_is_one_minus_probability(sub) for sub in ast.walk(node))


def _path_exempt(module: ModuleContext) -> bool:
    return any(part in module.relpath for part in _EXEMPT_PARTS)


class FloatEqualityRule(Rule):
    id = "SKY301"
    name = "probability-float-equality"
    severity = Severity.ERROR
    description = (
        "==/!= between float probability expressions: threshold semantics "
        "(Eq. 3, P_sky >= q) are order comparisons; exact float equality on "
        "a product of (1 - P) terms is a latent always-false branch."
    )

    def check(self, module: ModuleContext, program: Program) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                pair = (left, right)
                prob_side = any(_probability_typed(x) for x in pair)
                float_side = any(_is_float_constant(x) for x in pair)
                # Flag p == p2 (both probability-typed) and p == 0.5
                # (probability vs float literal).  Integer sentinels
                # (e.g. `count == 0`) stay legal.
                if prob_side and (
                    float_side or all(_probability_typed(x) for x in pair)
                ):
                    op_text = "==" if isinstance(op, ast.Eq) else "!="
                    yield module.finding(
                        self,
                        node,
                        f"float probability compared with `{op_text}`; use an "
                        "order comparison against the threshold or an explicit "
                        "tolerance",
                    )
                    break


class RawNonOccurrenceProductRule(Rule):
    id = "SKY302"
    name = "probability-raw-product"
    severity = Severity.ERROR
    description = (
        "Loop product over (1 - P) terms outside core.probability: re-rolled "
        "Eq. 3/9 products drift (association order, self-key exclusion, "
        "floor early-exit); use non_occurrence_product / skyline_probability "
        "/ feedback_pruning_bound instead."
    )

    def applies_to(self, module: ModuleContext) -> bool:
        return not _path_exempt(module)

    def check(self, module: ModuleContext, program: Program) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.AugAssign, ast.Assign)):
                yield from self._check_accumulation(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_prod_call(module, node)

    def _check_accumulation(self, module: ModuleContext, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.AugAssign):
            if not isinstance(node.op, ast.Mult):
                return
            value = node.value
        else:
            value = node.value  # type: ignore[union-attr]
            if not (isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult)):
                return
        if not _contains_one_minus_probability(value):
            return
        if not self._inside_loop(module, node):
            return
        yield module.finding(
            self,
            node,
            "loop product over (1 - P) terms; route through the "
            "core.probability helpers (non_occurrence_product / "
            "feedback_pruning_bound) so exclusion and floor semantics "
            "stay in one place",
        )

    def _check_prod_call(self, module: ModuleContext, node: ast.Call) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name.split(".")[-1] != "prod":
            return
        if any(_contains_one_minus_probability(arg) for arg in node.args):
            yield module.finding(
                self,
                node,
                f"`{name}` over (1 - P) terms bypasses core.probability; "
                "use non_occurrence_product (it also gives the floor "
                "early-exit for free)",
            )

    @staticmethod
    def _inside_loop(module: ModuleContext, node: ast.AST) -> bool:
        for anc in module.ancestors(node):
            if isinstance(anc, (ast.For, ast.While)):
                return True
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
        return False
