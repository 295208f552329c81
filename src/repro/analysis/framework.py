"""The skylint core: findings, rules, module/project context, suppression.

Ordinary linters see syntax; this framework exists so rules can see the
*repo's* invariants — protocol accounting, deterministic replay,
probability arithmetic, RPC fault discipline, and process-shared state.
It is deliberately dependency-free (``ast`` + stdlib only) so the CI
job needs nothing beyond the checkout.

Building blocks:

* :class:`Finding` — one diagnostic, with a line-drift-tolerant
  fingerprint (rule, path, enclosing context, source snippet) used by
  the baseline machinery.
* :class:`Rule` — a named, severity-carrying check over one
  :class:`ModuleContext` (per-file AST + source) with access to the
  cross-file :class:`Project` (class hierarchy, module index).
* :class:`ModuleContext` — parsed file plus the parent map and
  per-line ``# skylint: ignore[RULE]`` suppressions.
* :func:`run_rules` / :func:`analyze_paths` — the drivers.

Suppression syntax, checked on the finding's own line::

    p *= 1.0 - t.probability  # skylint: ignore[SKY302] Eq. 1 oracle

A reason after the closing bracket is required — an unexplained
suppression is itself reported (rule ``SKY000``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Severity",
    "Finding",
    "Rule",
    "ModuleContext",
    "Project",
    "module_findings",
    "run_rules",
    "analyze_paths",
    "dotted_name",
    "iter_source_files",
]


class Severity:
    """Finding severities, ordered: errors gate, warnings inform."""

    ERROR = "error"
    WARNING = "warning"

    _ORDER = {ERROR: 0, WARNING: 1}

    @classmethod
    def rank(cls, severity: str) -> int:
        return cls._ORDER.get(severity, 99)


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
    snippet: str    # the stripped source line, for fingerprinting

    def fingerprint(self) -> Tuple[str, str, str, str]:
        """Line-number-free identity used to match baseline entries.

        Using (rule, path, context, snippet) instead of the line number
        keeps a baselined finding recognised when unrelated edits shift
        the file, while an edit to the offending line itself correctly
        surfaces it as new.
        """
        return (self.rule, self.path, self.context, self.snippet)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "context": self.context,
            "snippet": self.snippet,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Finding":
        return cls(
            rule=str(data["rule"]),
            severity=str(data["severity"]),
            path=str(data["path"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            column=int(data["column"]),  # type: ignore[arg-type]
            message=str(data["message"]),
            context=str(data["context"]),
            snippet=str(data["snippet"]),
        )


_SUPPRESS_RE = re.compile(
    r"#\s*skylint:\s*ignore\[(?P<rules>[A-Z0-9*,\s]+)\]\s*(?P<reason>.*)$"
)


class ModuleContext:
    """One parsed source file plus the navigation aids rules need."""

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath.replace("\\", "/")
        self.source = source
        self.tree = ast.parse(source)
        self.lines = source.splitlines()
        #: line number -> (set of suppressed rule ids, reason text)
        self.suppressions: Dict[int, Tuple[Set[str], str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                ids = {r.strip() for r in match.group("rules").split(",") if r.strip()}
                self.suppressions[lineno] = (ids, match.group("reason").strip())
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    @classmethod
    def from_file(cls, path: Path, root: Path) -> "ModuleContext":
        try:
            rel = path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = path
        return cls(rel.as_posix(), path.read_text(encoding="utf-8"))

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

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

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
        lineno = getattr(node, "lineno", 1)
        return Finding(
            rule=rule.id,
            severity=severity or rule.severity,
            path=self.relpath,
            line=lineno,
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
            context=self.enclosing_context(node),
            snippet=self.source_line(lineno),
        )


class Project:
    """Cross-module facts shared by every rule in one run.

    ``class_bases`` may be injected pre-built (the incremental engine
    derives it from cached summaries without re-parsing files); classes
    found in ``modules`` are merged on top.
    """

    def __init__(
        self,
        modules: Sequence[ModuleContext],
        class_bases: Optional[Dict[str, Set[str]]] = None,
    ) -> None:
        self.modules = list(modules)
        #: class name -> set of textual base-class names, across all files.
        self.class_bases: Dict[str, Set[str]] = {
            name: set(bases) for name, bases in (class_bases or {}).items()
        }
        for module in self.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    bases = {
                        base.id if isinstance(base, ast.Name) else _attr_tail(base)
                        for base in node.bases
                    }
                    self.class_bases.setdefault(node.name, set()).update(
                        b for b in bases if b
                    )

    def inherits_from(self, class_name: str, root: str) -> bool:
        """Transitive, name-based subclass test (``DSUD`` → ``Coordinator``)."""
        seen: Set[str] = set()
        frontier = [class_name]
        while frontier:
            name = frontier.pop()
            if name == root:
                return True
            if name in seen:
                continue
            seen.add(name)
            frontier.extend(self.class_bases.get(name, ()))
        return False


class Rule:
    """Base class: subclasses define ``id``/``name``/``severity`` and ``check``."""

    id: str = "SKY000"
    name: str = "abstract"
    severity: str = Severity.WARNING
    description: str = ""

    def check(self, module: ModuleContext, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def applies_to(self, module: ModuleContext) -> bool:
        """Path-based scoping hook; default is every module."""
        return True


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted source form: ``self.stats.record``, ``np.random.default_rng``.

    Call nodes in the chain contribute ``()`` so receivers like
    ``self._broadcast_pool().map`` stay recognisable.
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


def _attr_tail(node: ast.AST) -> str:
    return node.attr if isinstance(node, ast.Attribute) else ""


def iter_source_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def module_findings(
    module: ModuleContext,
    rules: Sequence[Rule],
    project: Project,
) -> List[Finding]:
    """Run module rules over one file: findings, suppressions honoured.

    A ``# skylint: ignore[...]`` comment with no reason text is itself
    reported (SKY000): a suppression must justify the invariant it waives.
    """
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(module):
            continue
        for finding in rule.check(module, project):
            if module.is_suppressed(finding.rule, finding.line):
                continue
            findings.append(finding)
    for lineno, (ids, reason) in sorted(module.suppressions.items()):
        if not reason:
            findings.append(
                Finding(
                    rule="SKY000",
                    severity=Severity.ERROR,
                    path=module.relpath,
                    line=lineno,
                    column=1,
                    message=(
                        "skylint suppression without a reason: say why "
                        f"{sorted(ids)} may be ignored here"
                    ),
                    context="<module>",
                    snippet=module.source_line(lineno),
                )
            )
    return findings


def run_rules(
    modules: Sequence[ModuleContext], rules: Sequence[Rule]
) -> List[Finding]:
    """Run every rule over every module (the non-incremental driver)."""
    project = Project(modules)
    findings: List[Finding] = []
    for module in modules:
        findings.extend(module_findings(module, rules, project))
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return findings


def analyze_paths(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    root: Optional[Path] = None,
) -> List[Finding]:
    """Parse every ``.py`` under ``paths`` and run ``rules`` over them."""
    root = root or Path.cwd()
    modules = [
        ModuleContext.from_file(path, root) for path in iter_source_files(paths)
    ]
    return run_rules(modules, rules)
