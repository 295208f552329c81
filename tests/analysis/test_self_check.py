"""Self-check: skylint over the repo's default scope finds nothing.

This is the same gate CI runs (``python -m repro.analysis``), expressed
as a tier-1 test so a finding introduced by a patch fails locally before
it ever reaches the workflow.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.__main__ import DEFAULT_SCAN_DIRS
from repro.analysis.engine import analyze_paths, run_rules
from repro.analysis.rules import RULES


def _repo_root() -> Path:
    root = Path(__file__).resolve()
    for candidate in root.parents:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    raise AssertionError("pyproject.toml not found above tests/")


def test_whole_program_pass_is_clean_over_the_default_scope():
    """Both phases over src/ + benchmarks/ + examples/.

    A file that cannot be read or parsed raises ``SourceError`` here, and
    a suppression without a reason is a SKY000 finding, so neither can
    slip through.
    """
    root = _repo_root()
    paths = [root / d for d in DEFAULT_SCAN_DIRS if (root / d).is_dir()]
    assert paths, "no default scan directories found"
    findings = run_rules(analyze_paths(paths, root), RULES)
    assert findings == [], "skylint findings (fix them, or suppress inline with a reason):\n  " + (
        "\n  ".join(f"{f.location()} {f.rule} {f.message}" for f in findings)
    )
