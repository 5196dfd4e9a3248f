"""Every module of src/dmimo uses each name it imports, every private
module-level name is read somewhere in the package, `dmimo.__all__` is what
the package imports, and importing the package loads nothing heavy.

A stdlib-only stand-in for a linter's unused-import and dead-code rules.
`__init__.py` is exempt from the import rule because it imports to
re-export, and so are `from __future__` imports. A name counts as used
wherever the module reads it; under `from __future__ import annotations` an
annotation is still parsed, so a name used only there counts too.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dmimo"


def unused_imports(source: str) -> list:
    """(line, name) of each name an import of `source` binds and it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.stem}.{name} (line {line})"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def private_definitions(tree) -> dict:
    """{name: line} of each `_name` a module defines at its top level, as a
    function, a class or an assignment target; dunders are exempt."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                found.setdefault(name, node.lineno)
    return found


def names_read(tree) -> set:
    """Every name `tree` reads: a loaded Name, an attribute, or a name a
    `from ... import` brings in."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_private_module_name_is_read_in_the_package():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    read = set().union(*map(names_read, trees.values()))
    found = [
        f"{module}.{name} (line {line})"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]
    assert found == []


def test_private_name_check_finds_a_leftover():
    tree = ast.parse(
        "_LIMIT = 3\n_a, (_b, c) = 1, (2, 3)\n__all__ = []\n"
        "def _used(): return _LIMIT\ndef _left(): pass\nclass _Gone: pass\nx = _used()\n"
    )
    defined = private_definitions(tree)
    assert sorted(defined) == ["_Gone", "_LIMIT", "_a", "_b", "_left", "_used"]
    assert sorted(set(defined) - names_read(tree)) == ["_Gone", "_a", "_b", "_left"]


def test_dunder_all_is_what_the_package_imports():
    # a public name deleted from a module cannot leave a stale export
    import dmimo

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(dmimo.__all__) == sorted(set(imported)) == sorted(imported)
    assert [name for name in dmimo.__all__ if not hasattr(dmimo, name)] == []


def test_importing_dmimo_leaves_multiprocessing_unloaded():
    # a run's setup time includes `import dmimo`; multiprocessing's shared
    # memory modules alone take milliseconds to import
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    script = "import dmimo, sys; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"
