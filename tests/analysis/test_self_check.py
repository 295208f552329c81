"""Self-check: skylint over the real src/ tree matches the committed baseline.

This is the same gate CI runs (``python -m repro.analysis``), expressed
as a tier-1 test so a finding introduced by a patch fails locally before
it ever reaches the workflow.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.baseline import DEFAULT_BASELINE_NAME, compare, load_baseline
from repro.analysis.engine import analyze_project
from repro.analysis.framework import ModuleContext, run_rules
from repro.analysis.rules import ALL_RULES, PROGRAM_RULES


def _repo_root() -> Path:
    root = Path(__file__).resolve()
    for candidate in root.parents:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    raise AssertionError("pyproject.toml not found above tests/")


@pytest.fixture(scope="module")
def modules():
    src = _repo_root() / "src"
    paths = sorted(src.rglob("*.py"))
    assert paths, "no sources found under src/"
    return [ModuleContext.from_file(path, src) for path in paths]


def test_src_matches_the_committed_baseline(modules):
    findings = run_rules(modules, ALL_RULES)
    baseline = load_baseline(_repo_root() / DEFAULT_BASELINE_NAME)
    comparison = compare(findings, baseline)
    new = [f"{f.rule} {f.path}:{f.line} {f.message}" for f in comparison.new]
    stale = [f"{e.rule} {e.path} ({e.context})" for e in comparison.stale]
    assert comparison.clean, (
        "skylint drifted from the committed baseline.\n"
        "New findings (fix them, or baseline with --write-baseline and a "
        "justification):\n  " + "\n  ".join(new or ["<none>"]) + "\n"
        "Stale baseline entries (delete them):\n  " + "\n  ".join(stale or ["<none>"])
    )


def test_whole_program_pass_is_clean_over_the_default_scope():
    """The CI gate proper: both phases over src/ + benchmarks/ + examples/.

    Runs without a cache so the result is a pure function of the
    sources, and adds the SKY6xx rules the per-file check above cannot
    run.
    """
    root = _repo_root()
    paths = [
        root / d for d in ("src", "benchmarks", "examples") if (root / d).is_dir()
    ]
    assert paths, "no default scan directories found"
    findings, stats = analyze_project(
        paths, ALL_RULES, PROGRAM_RULES, root=root, cache_path=None
    )
    assert stats.files > 0 and not stats.notes, stats.notes
    baseline = load_baseline(root / DEFAULT_BASELINE_NAME)
    comparison = compare(findings, baseline)
    new = [f"{f.rule} {f.path}:{f.line} {f.message}" for f in comparison.new]
    assert comparison.clean, (
        "whole-program skylint drifted from the committed baseline:\n  "
        + "\n  ".join(new or ["<none>"])
    )


def test_every_suppression_in_src_carries_a_reason(modules):
    reasonless = [
        f"{module.relpath}:{line}"
        for module in modules
        for line, (_ids, reason) in sorted(module.suppressions.items())
        if not reason.strip()
    ]
    assert reasonless == [], f"reasonless `skylint: ignore` comments: {reasonless}"


def test_the_committed_baseline_is_currently_empty():
    # Not a framework invariant -- a statement of repo policy: every
    # finding to date was fixed, none waived.  If a future PR must
    # baseline a finding, update this test alongside the justification.
    baseline = load_baseline(_repo_root() / DEFAULT_BASELINE_NAME)
    assert baseline == []
