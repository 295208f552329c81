"""The two-phase whole-program driver.

Phase 1 walks the requested paths, parses changed files into
:class:`~repro.analysis.summaries.ModuleSummary` objects (unchanged
files come straight from the cache, never re-parsed), and runs the
per-module rules.  Phase 2 links every summary into a
:class:`~repro.analysis.callgraph.Program` and runs the SKY6xx
interprocedural rules over the call graph.

``# skylint: ignore[...]`` suppressions apply uniformly: module-rule
findings are filtered while the file's AST is in hand, program-rule
findings against the suppression map recorded in the summary — so a
cached file's suppressions keep working without re-parsing it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .cache import SummaryCache, content_sha, engine_signature
from .callgraph import Program, ProgramRule
from .framework import (
    Finding,
    ModuleContext,
    Project,
    Rule,
    iter_source_files,
    module_findings,
)
from .summaries import ModuleSummary, build_summary

__all__ = ["ENGINE_VERSION", "RunStats", "analyze_project"]

#: Bump on any change to summary extraction, linking, or rule logic —
#: it keys the on-disk cache, so stale summaries can never leak across
#: analyzer versions.
ENGINE_VERSION = "3.0"


@dataclass
class RunStats:
    """Where a run spent its time, for the CLI ``--stats`` flag."""

    files: int = 0
    parsed: int = 0
    summary_hits: int = 0
    findings_hits: int = 0
    phase1_seconds: float = 0.0
    phase2_seconds: float = 0.0
    total_seconds: float = 0.0
    cache_path: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    @property
    def warm(self) -> bool:
        return self.files > 0 and self.parsed == 0

    def render(self) -> str:
        temperature = "warm" if self.warm else "cold"
        lines = [
            f"skylint --stats: {temperature} run over {self.files} file(s): "
            f"{self.parsed} parsed, {self.summary_hits} summary cache hit(s), "
            f"{self.findings_hits} findings cache hit(s)",
            f"  phase 1 (parse+summaries+module rules): "
            f"{self.phase1_seconds:.3f}s",
            f"  phase 2 (call graph+interprocedural):   "
            f"{self.phase2_seconds:.3f}s",
            f"  total:                                  "
            f"{self.total_seconds:.3f}s",
        ]
        if self.cache_path:
            lines.append(f"  cache: {self.cache_path}")
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def _relpath(path: Path, root: Path) -> str:
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = path
    return rel.as_posix()


def analyze_project(
    paths: Sequence[Path],
    module_rules: Sequence[Rule],
    program_rules: Sequence[ProgramRule],
    root: Optional[Path] = None,
    cache_path: Optional[Path] = None,
) -> Tuple[List[Finding], RunStats]:
    """Run the full two-phase analysis; returns (findings, stats)."""
    t_start = time.perf_counter()
    root = root or Path.cwd()
    stats = RunStats()

    signature = engine_signature(
        ENGINE_VERSION,
        [r.id for r in module_rules] + [r.id for r in program_rules],
    )
    cache = (
        SummaryCache.load(cache_path, signature) if cache_path is not None else None
    )
    if cache_path is not None:
        stats.cache_path = str(cache_path)

    # ------------------------------------------------------------------
    # phase 1a: summaries (from cache, or by parsing)
    # ------------------------------------------------------------------
    loaded: List[Tuple[str, str, str, Optional[ModuleContext], ModuleSummary]] = []
    for path in iter_source_files(paths):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            stats.notes.append(f"unreadable {path}: {exc}")
            continue
        relpath = _relpath(path, root)
        sha = content_sha(text)
        entry = cache.get(relpath, sha) if cache is not None else None
        if entry is not None:
            loaded.append((relpath, sha, text, None, entry.summary))
            stats.summary_hits += 1
        else:
            try:
                ctx = ModuleContext(relpath, text)
            except SyntaxError as exc:
                stats.notes.append(f"syntax error in {relpath}: {exc}")
                continue
            loaded.append((relpath, sha, text, ctx, build_summary(ctx)))
            stats.parsed += 1
    stats.files = len(loaded)

    # ------------------------------------------------------------------
    # phase 1b: module rules (cached per file, keyed by the cross-file
    # facts they can observe: the class hierarchy)
    # ------------------------------------------------------------------
    class_bases: Dict[str, Set[str]] = {}
    for _relp, _sha, _text, _ctx, summary in loaded:
        for cls in summary.classes.values():
            class_bases.setdefault(cls.name, set()).update(cls.bases)
    findings_sig = engine_signature(
        signature,
        [f"{name}<-{','.join(sorted(bases))}" for name, bases in sorted(class_bases.items())],
    )
    project = Project([], class_bases=class_bases)

    findings: List[Finding] = []
    for relpath, sha, text, ctx, summary in loaded:
        entry = cache.get(relpath, sha) if cache is not None else None
        if entry is not None and entry.findings_sig == findings_sig:
            findings.extend(entry.findings)
            stats.findings_hits += 1
            continue
        if ctx is None:
            # Summary was cached but the project-level signature moved:
            # re-parse just for the module rules.
            ctx = ModuleContext(relpath, text)
            stats.parsed += 1
        file_findings = module_findings(ctx, module_rules, project)
        findings.extend(file_findings)
        if cache is not None:
            cache.put(relpath, sha, summary, findings_sig, file_findings)
    stats.phase1_seconds = time.perf_counter() - t_start

    # ------------------------------------------------------------------
    # phase 2: link and run the interprocedural rules
    # ------------------------------------------------------------------
    t_phase2 = time.perf_counter()
    program = Program([summary for _r, _s, _t, _c, summary in loaded])
    for rule in program_rules:
        for finding in rule.check_program(program):
            if program.is_suppressed(finding.path, finding.rule, finding.line):
                continue
            findings.append(finding)
    stats.phase2_seconds = time.perf_counter() - t_phase2

    if cache is not None:
        cache.prune({relpath for relpath, _s, _t, _c, _m in loaded})
        cache.save()

    findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    stats.total_seconds = time.perf_counter() - t_start
    return findings, stats
