"""The skylint core: findings, rules, the parsed module, suppression.

Ordinary linters see syntax; this framework exists so rules can see the
*repo's* invariants — protocol accounting, deterministic replay,
probability arithmetic, RPC fault discipline, and process-shared state.
It is deliberately dependency-free (``ast`` + stdlib only) so the CI
step needs nothing beyond the checkout.

Building blocks:

* :class:`Finding` — one diagnostic.
* :class:`Rule` — a named, severity-carrying check over one
  :class:`ModuleContext` (per-file AST + source) with access to the
  linked :class:`~repro.analysis.callgraph.Program` (class hierarchy,
  call graph).
* :class:`ModuleContext` — parsed file plus the parent map and
  per-line ``# skylint: ignore[RULE]`` suppressions.

The driver, :func:`repro.analysis.engine.run_rules`, runs both rule
kinds and honours suppressions.  Suppression syntax, checked on the
finding's own line::

    p *= 1.0 - t.probability  # skylint: ignore[SKY302] Eq. 1 oracle

A reason after the closing bracket is required — an unexplained
suppression is itself reported (rule ``SKY000``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

if TYPE_CHECKING:
    from .callgraph import Program

__all__ = ["Severity", "Finding", "Rule", "ModuleContext", "dotted_name"]


class Severity:
    """Finding severities (any finding, of either, fails the run)."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule."""

    rule: str
    severity: str
    path: str       # posix path, repo-relative
    line: int
    column: int
    message: str
    context: str    # enclosing ``Class.method`` (or ``<module>``)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"


_SUPPRESS_RE = re.compile(
    r"#\s*skylint:\s*ignore\[(?P<rules>[A-Z0-9*,\s]+)\]\s*(?P<reason>.*)$"
)


class ModuleContext:
    """One parsed source file plus the navigation aids rules need."""

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath.replace("\\", "/")
        self.source = source
        self.tree = ast.parse(source)
        #: line number -> (set of suppressed rule ids, reason text)
        self.suppressions: Dict[int, Tuple[Set[str], str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                ids = {r.strip() for r in match.group("rules").split(",") if r.strip()}
                self.suppressions[lineno] = (ids, match.group("reason").strip())
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_context(self, node: ast.AST) -> str:
        """``Class.method`` (innermost def/class chain) for a node."""
        names: List[str] = []
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(anc.name)
        return ".".join(reversed(names)) or "<module>"

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional["ast.FunctionDef | ast.AsyncFunctionDef"]:
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        for anc in self.ancestors(node):
            if isinstance(anc, ast.ClassDef):
                return anc
        return None

    def is_suppressed(self, rule_id: str, lineno: int) -> bool:
        entry = self.suppressions.get(lineno)
        if entry is None:
            return False
        ids, _reason = entry
        return "*" in ids or rule_id in ids

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        severity: Optional[str] = None,
    ) -> Finding:
        return Finding(
            rule=rule.id,
            severity=severity or rule.severity,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
            context=self.enclosing_context(node),
        )


class Rule:
    """Base class: subclasses define ``id``/``name``/``severity`` and ``check``."""

    id: str = "SKY000"
    name: str = "abstract"
    severity: str = Severity.WARNING
    description: str = ""

    def check(self, module: ModuleContext, program: Program) -> Iterator[Finding]:
        raise NotImplementedError

    def applies_to(self, module: ModuleContext) -> bool:
        """Path-based scoping hook; default is every module."""
        return True


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted source form: ``self.stats.bill``, ``np.random.default_rng``.

    Call nodes in the chain contribute ``()`` so receivers like
    ``asyncio.get_running_loop().create_task`` stay recognisable.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        prefix = dotted_name(node.value)
        return f"{prefix}.{node.attr}" if prefix else node.attr
    if isinstance(node, ast.Call):
        prefix = dotted_name(node.func)
        return f"{prefix}()" if prefix else ""
    return ""
