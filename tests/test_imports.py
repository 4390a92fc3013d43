"""Every module of the package, its tests and its demos uses each name it
imports, and every function, class and method of the package is used."""

import ast
import re
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


def definitions(tree: ast.Module):
    """``(name, first line, last line)`` of each function, class and method a
    module defines, decorators included; dunder methods are left out, since
    Python calls them itself."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield node.name, first, node.end_lineno


def test_every_definition_in_src_is_used():
    """A definition is used when its name appears outside its own source lines:
    in the package (not counting the package root's re-exports), the demos,
    the benchmark or the README."""
    texts = {
        path: path.read_text(encoding="utf-8")
        for folder in ("src", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != REEXPORTS
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path == REEXPORTS:
            continue
        lines = texts[path].splitlines(keepends=True)
        for name, first, last in definitions(ast.parse(texts[path])):
            rest = "".join(lines[: first - 1] + lines[last:])
            others = (text for other, text in texts.items() if other != path)
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in (rest, readme, *others)):
                unused.append(f"{path.relative_to(ROOT)}:{first}: {name}")
    assert len(texts) > 10
    assert unused == []
