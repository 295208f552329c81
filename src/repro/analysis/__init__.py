"""skylint — repo-specific static analysis for the skyline reproduction.

Run as ``python -m repro.analysis [paths]``.

The framework (:mod:`~repro.analysis.framework`) is plain-``ast`` and
dependency-free; the rules (:mod:`~repro.analysis.rules`) encode the
invariants ordinary linters cannot see — protocol accounting (Eq. 10),
deterministic replay, Eq. 3/9 probability arithmetic, the fault-aware
RPC funnel, and process-shared state.  See ``docs/static-analysis.md``.
"""

from __future__ import annotations

from .callgraph import Program, ProgramRule
from .engine import SourceError, analyze_paths, run_rules
from .framework import Finding, ModuleContext, Rule, Severity
from .rules import RULES, rules_by_id
from .summaries import ModuleSummary, build_summary

__all__ = [
    "Finding",
    "ModuleContext",
    "ModuleSummary",
    "Program",
    "ProgramRule",
    "RULES",
    "Rule",
    "Severity",
    "SourceError",
    "analyze_paths",
    "build_summary",
    "rules_by_id",
    "run_rules",
]
