"""Every module of the package, its tests and its demos uses each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package root's imports are its public API, re-exported unused
REEXPORTS = ROOT / "src" / "rejectopt" / "__init__.py"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each name a module imports and never reads.

    ``import a.b`` binds ``a``; ``from __future__ import ...`` binds nothing.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    modules = [
        path
        for folder in ("src", "tests", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != REEXPORTS
    ]
    assert len(modules) > 20
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []
