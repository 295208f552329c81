"""Every ``repro.index`` module is used by ``repro`` itself.

A site builds one spatial index, the STR-packed PR-tree.  A module of
``repro/index/`` that only the package ``__init__`` re-exports (or only
tests import) is a rival no query path selects, and is deleted rather
than kept alive by its export.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
INDEX = SRC / "index"


def _imports(path):
    """The dotted ``repro`` modules ``path`` imports, relative ones resolved."""
    package = path.relative_to(SRC.parent).with_suffix("").parts[:-1]
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + tuple(filter(None, [node.module])))
            out.add(module)
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


def test_every_index_module_has_a_user_besides_the_package_init():
    users = {}
    for path in SRC.rglob("*.py"):
        if path != INDEX / "__init__.py":
            for module in _imports(path):
                users.setdefault(module, set()).add(path)
    unused = [
        path.name
        for path in sorted(INDEX.glob("*.py"))
        if path.stem != "__init__" and not users.get(f"repro.index.{path.stem}", set()) - {path}
    ]
    assert unused == []
