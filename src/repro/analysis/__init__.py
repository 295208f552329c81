"""skylint — repo-specific static analysis for the skyline reproduction.

Run as ``python -m repro.analysis [paths] [--format json] [--baseline FILE]``.

The framework (:mod:`~repro.analysis.framework`) is plain-``ast`` and
dependency-free; the rules (:mod:`~repro.analysis.rules`) encode the
invariants ordinary linters cannot see — protocol accounting (Eq. 10),
deterministic replay, Eq. 3/9 probability arithmetic, the fault-aware
RPC funnel, and process-shared state.  See ``docs/static-analysis.md``.
"""

from __future__ import annotations

from .baseline import (
    BaselineComparison,
    BaselineEntry,
    compare,
    load_baseline,
    write_baseline,
)
from .framework import (
    Finding,
    ModuleContext,
    Project,
    Rule,
    Severity,
    analyze_paths,
    run_rules,
)
from .callgraph import Program, ProgramRule
from .engine import ENGINE_VERSION, RunStats, analyze_project
from .reporters import render_json, render_sarif, render_text, summarize
from .rules import ALL_RULES, PROGRAM_RULES, rules_by_id
from .summaries import ModuleSummary, build_summary

__all__ = [
    "ALL_RULES",
    "ENGINE_VERSION",
    "BaselineComparison",
    "BaselineEntry",
    "Finding",
    "ModuleContext",
    "ModuleSummary",
    "PROGRAM_RULES",
    "Program",
    "ProgramRule",
    "Project",
    "Rule",
    "RunStats",
    "Severity",
    "analyze_paths",
    "analyze_project",
    "build_summary",
    "compare",
    "load_baseline",
    "render_json",
    "render_sarif",
    "render_text",
    "rules_by_id",
    "run_rules",
    "summarize",
    "write_baseline",
]
