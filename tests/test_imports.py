"""Every module of src/dmimo uses each name it imports.

A stdlib-only stand-in for a linter's unused-import rule. `__init__.py` is
exempt because it imports to re-export, and so are `from __future__`
imports. A name counts as used wherever the module reads it; under
`from __future__ import annotations` an annotation is still parsed, so a
name used only there counts too.
"""

import ast
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
