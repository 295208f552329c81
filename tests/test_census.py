"""Every module of ``repro`` is reached by code that runs.

A module counts as used when another module of ``src/repro/`` or of
``perf/`` imports it, or imports one of its names — directly, or from a
package whose ``__init__`` re-exports that name from it.  A package
``__init__`` is a user only of the names its own body uses (the way
``analysis/rules/__init__.py`` builds ``RULES``); re-exporting alone
keeps nothing alive, and ``repro/__init__.py`` never counts.  A module
only tests or the package exports reach is a feature no query path
selects, and is deleted rather than kept alive by its export.

Package ``__init__`` and ``__main__`` modules are entry points, not
candidates.  The one exemption is the possible-world reference the
tests compare every answer against.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
PERF = SRC.parent.parent / "perf"
EXEMPT = {"repro.core.possible_worlds"}


def _dotted(path):
    """``repro.a.b`` for ``src/repro/a/b.py`` (and for ``b/__init__.py``)."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_dotted(path): path for path in SRC.rglob("*.py")}


def _is_package(module):
    return MODULES.get(module, Path()).name == "__init__.py"


def _imports(path):
    """``path``'s tree and the ``(module, name, bound)`` triples it
    imports: ``name`` is None for a whole module, ``bound`` is the local
    name.  Relative imports are resolved against ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    here = _dotted(path).split(".") if path.is_relative_to(SRC) else []
    if path.name != "__init__.py":
        here = here[:-1]
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((alias.name, None, alias.asname or alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = here[: len(here) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            out.extend((module, alias.name, alias.asname or alias.name) for alias in node.names)
    return tree, out


def _body_names(tree):
    """Names a module's own code loads, outside its import statements."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _origins(module, name):
    """The modules an import of ``name`` from ``module`` reaches: a
    submodule, or the module defining it behind any re-exports."""
    if name is None:
        return {module}
    if f"{module}.{name}" in MODULES:
        return {f"{module}.{name}"}
    if not _is_package(module):
        return {module}
    _, imports = _imports(MODULES[module])
    for source, imported, bound in imports:
        if bound == name:
            return {module} | _origins(source, imported)
    return {module}


def _users():
    """Module → the files that reach it."""
    users = {}
    files = list(SRC.rglob("*.py")) + list(PERF.rglob("*.py"))
    for path in files:
        if path == SRC / "__init__.py":
            continue
        tree, imports = _imports(path)
        loaded = _body_names(tree) if path.name == "__init__.py" else None
        for module, name, bound in imports:
            if loaded is not None and bound not in loaded:
                continue
            for origin in _origins(module, name):
                users.setdefault(origin, set()).add(path)
    return users


def test_every_module_has_a_user_besides_the_package_exports():
    users = _users()
    unused = sorted(
        module
        for module, path in MODULES.items()
        if path.stem not in ("__init__", "__main__")
        and module not in EXEMPT
        and not users.get(module, set()) - {path}
    )
    assert unused == []

