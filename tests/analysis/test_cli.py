"""The skylint command line over small trees: exit 0 clean, 1 on a
finding, 2 when a source cannot be analysed or a rule id is unknown."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.rules import RULES

_CLEAN = """\
import time


def stamp():
    return time.perf_counter()
"""

#: SKY202 (wall-clock read) at line 5.
_DIRTY = _CLEAN.replace("time.perf_counter()", "time.time()")


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A repo root holding ``src/repro/core/``; the cwd for ``main``."""
    (tmp_path / "pyproject.toml").write_text("", encoding="utf-8")
    (tmp_path / "src" / "repro" / "core").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write(tree: Path, source, name: str = "fake.py") -> None:
    target = tree / "src" / "repro" / "core" / name
    if isinstance(source, bytes):
        target.write_bytes(source)
    else:
        target.write_text(source, encoding="utf-8")


def test_a_clean_tree_exits_0(tree, capsys):
    _write(tree, _CLEAN)
    assert main([]) == 0
    assert "skylint: clean" in capsys.readouterr().out


def test_a_finding_exits_1_and_names_file_and_line(tree, capsys):
    _write(tree, _DIRTY)
    assert main([]) == 1
    out = capsys.readouterr().out
    assert "src/repro/core/fake.py:5:" in out and "SKY202" in out


def test_a_syntax_error_exits_2_even_beside_a_finding(tree, capsys):
    # The unparsable file also reads the wall clock: it must not pass
    # as clean just because it cannot be parsed.
    _write(tree, _DIRTY + "\ndef broken(:\n", "broken.py")
    _write(tree, _CLEAN)
    assert main([]) == 2
    err = capsys.readouterr().err
    assert "src/repro/core/broken.py:7:" in err


def test_a_file_that_is_not_utf8_exits_2(tree, capsys):
    _write(tree, b"NAME = '\xff'\n", "latin.py")
    assert main([]) == 2
    assert "src/repro/core/latin.py: " in capsys.readouterr().err


def test_a_named_path_that_does_not_exist_exits_2(tree, capsys):
    assert main(["does/not/exist"]) == 2
    assert "does/not/exist: " in capsys.readouterr().err


def test_explain_a_rule_exits_0_and_an_unknown_id_exits_2(capsys):
    assert main(["--explain", "SKY601"]) == 0
    assert "async-transitive-blocking" in capsys.readouterr().out
    assert main(["--explain", "SKY999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_list_rules_prints_every_rule_id(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    ids = [rule.id for rule in RULES]
    assert len(ids) == 11
    assert all(rule_id in out for rule_id in ids)
