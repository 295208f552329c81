"""Every fully qualified cross-reference in a ``repro`` docstring resolves.

A ``:class:``/``:func:``/``:meth:``/``:mod:`` role naming
``repro.…`` must import: deleting or moving code takes the docstrings
that point at it along.
"""

import ast
import importlib
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ROLE = re.compile(r":(?:class|func|meth|mod):`[~!]?(repro(?:\.\w+)+)`")


def _references():
    """``(file, line, dotted target)`` for every role in a docstring."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            doc = ast.get_docstring(node, clean=False)
            if doc is None:
                continue
            start = node.body[0].lineno
            for match in ROLE.finditer(doc):
                line = start + doc.count("\n", 0, match.start())
                out.append((path.relative_to(SRC.parent), line, match.group(1)))
    return out


def _resolves(target):
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def test_every_docstring_reference_resolves():
    references = _references()
    assert len(references) > 100  # the scan sees the docstrings
    broken = [
        f"{path}:{line}: {target}"
        for path, line, target in references
        if not _resolves(target)
    ]
    assert broken == []
