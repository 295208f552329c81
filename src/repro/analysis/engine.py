"""The skylint driver: sources in, sorted findings out.

:func:`analyze_paths` reads and parses every ``.py`` under the given
paths once; :func:`run_rules` runs every rule over those parsed modules
in two phases.  Phase 1 distills each module into a
:class:`~repro.analysis.summaries.ModuleSummary`, linked into one
:class:`~repro.analysis.callgraph.Program`, and runs the per-module
rules (which see the program's class hierarchy).  Phase 2 runs each
whole-program (SKY6xx) rule once over the call graph.  Every finding,
of either phase, honours the ``# skylint: ignore[...]`` suppression on
its own line; a suppression without a reason is itself a finding
(SKY000).

A run reads nothing but the sources, so the same tree always gives the
same findings.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Sequence

from .callgraph import Program, ProgramRule
from .framework import Finding, ModuleContext, Rule, Severity
from .summaries import build_summary

__all__ = ["SourceError", "analyze_paths", "run_rules"]


class SourceError(Exception):
    """Some named source could not be analysed: missing, not UTF-8, or
    not valid Python.  A file skylint cannot read must never pass as
    clean.  ``problems`` holds one ``path[:line]: reason`` per file."""

    def __init__(self, problems: List[str]) -> None:
        super().__init__("\n".join(problems))
        self.problems = problems


def _source_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py" or not path.exists():
            yield path  # a missing path fails to read, and is reported


def analyze_paths(paths: Sequence[Path], root: Path) -> List[ModuleContext]:
    """Parse every ``.py`` under ``paths``; paths become relative to ``root``.

    Raises :class:`SourceError` naming every file that could not be
    read or parsed.
    """
    modules: List[ModuleContext] = []
    problems: List[str] = []
    for path in _source_files(paths):
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        try:
            modules.append(ModuleContext(relpath, path.read_text(encoding="utf-8")))
        except OSError as exc:
            problems.append(f"{relpath}: {exc.strerror or exc}")
        except SyntaxError as exc:
            problems.append(f"{relpath}:{exc.lineno}: {exc.msg}")
        except ValueError as exc:  # not UTF-8, or a NUL byte in the source
            problems.append(f"{relpath}: {exc}")
    if problems:
        raise SourceError(problems)
    return modules


def run_rules(modules: Sequence[ModuleContext], rules: Sequence[Rule]) -> List[Finding]:
    """Run ``rules`` over ``modules``; unsuppressed findings, sorted."""
    program = Program([build_summary(module) for module in modules])
    raw: List[Finding] = []
    for rule in rules:
        if isinstance(rule, ProgramRule):
            raw.extend(rule.check_program(program))
            continue
        for module in modules:
            if rule.applies_to(module):
                raw.extend(rule.check(module, program))
    by_path = {module.relpath: module for module in modules}
    findings = [f for f in raw if not by_path[f.path].is_suppressed(f.rule, f.line)]
    for module in modules:
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
                    )
                )
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return findings
