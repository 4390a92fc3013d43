"""Every module of the package, its tests and its demos uses each name it
imports, and every function, class and method of the package is used."""

import ast
import importlib
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def span(node) -> tuple[str, int, int] | None:
    """``(name, first line, last line)`` of a definition, decorators included;
    None for a dunder method, since Python calls it itself."""
    if node.name.startswith("__") and node.name.endswith("__"):
        return None
    return node.name, min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno


def definitions(tree: ast.Module):
    """The span of each function, class and method a module defines."""
    for node in ast.walk(tree):
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and (s := span(node)):
            yield s


def members(tree: ast.Module):
    """``(class, name, first line, last line)`` of each method and property
    defined in a class body; dunders are left out."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, FUNCTIONS) and (s := span(node)):
                    yield (cls.name, *s)


def used_elsewhere(pattern: str, path: Path, first: int, last: int, texts: dict) -> bool:
    """Whether ``pattern`` matches outside lines ``first``..``last`` of ``path``:
    in the rest of the package (not counting the package root's re-exports),
    the demos, the benchmark or the README."""
    lines = texts[path].splitlines(keepends=True)
    rest = "".join(lines[: first - 1] + lines[last:])
    others = (text for other, text in texts.items() if other != path)
    return any(re.search(pattern, text) for text in (rest, *others))


def sources() -> dict:
    texts = {
        path: path.read_text(encoding="utf-8")
        for folder in ("src", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != REEXPORTS
    }
    texts[ROOT / "README.md"] = (ROOT / "README.md").read_text(encoding="utf-8")
    assert len(texts) > 10
    return texts


def src_modules():
    return [path for path in sorted((ROOT / "src").rglob("*.py")) if path != REEXPORTS]


def test_every_definition_in_src_is_used():
    """A definition is used when its name appears outside its own source lines."""
    texts = sources()
    unused = [
        f"{path.relative_to(ROOT)}:{first}: {name}"
        for path in src_modules()
        for name, first, last in definitions(ast.parse(texts[path]))
        if not used_elsewhere(rf"\b{re.escape(name)}\b", path, first, last, texts)
    ]
    assert unused == []


def test_every_method_in_src_is_read_as_an_attribute():
    """A method or property is used when it is read as ``.name`` (or by
    ``getattr``/``hasattr`` with the literal name) outside its own lines; a
    name that the word alone would match can be a local variable elsewhere.
    A method overriding an attribute of a base class is called by that
    class's code, so it is exempt."""
    texts = sources()
    unused = []
    for path in src_modules():
        module = importlib.import_module(f"rejectopt.{path.stem}")
        for cls, name, first, last in members(ast.parse(texts[path])):
            bases = getattr(module, cls).__mro__[1:] if hasattr(module, cls) else ()
            if any(hasattr(base, name) for base in bases):
                continue
            word = re.escape(name)
            read = rf"""\.{word}\b|\b(?:get|has)attr\([^,()]+,\s*["']{word}["']"""
            if not used_elsewhere(read, path, first, last, texts):
                unused.append(f"{path.relative_to(ROOT)}:{first}: {cls}.{name}")
    assert unused == []


def modules_with_their_trees():
    for path in sorted((ROOT / "src").rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def text_writes(tree: ast.Module):
    """Line of each ``open`` call whose literal mode writes text ("w", "a",
    "x" or "+" without "b"). Binary modes are left out: the harness opens
    the two ends of each worker's pipe "rb" and "wb"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
            for mode in modes:
                if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
                    if set(mode.value) & set("wax+") and "b" not in mode.value:
                        yield node.lineno


def imported_modules(tree: ast.Module):
    """``(line, module)`` of each import, the package's own modules by their
    bare names (``from .charts import x`` gives ``charts``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module.removeprefix("rejectopt.")
        elif isinstance(node, ast.ImportFrom):  # from . import charts
            for alias in node.names:
                yield node.lineno, alias.name


def test_only_cli_and_data_write_files():
    """cli.py writes every command's output and data.py the scores CSV; the
    modules that compute results write no file."""
    writes = [
        f"{path.relative_to(ROOT)}:{line}"
        for path, tree in modules_with_their_trees()
        if path.name not in ("cli.py", "data.py")
        for line in text_writes(tree)
    ]
    assert writes == []


def test_only_cli_imports_json_and_the_charts():
    """The JSON records and the SVG charts are output formats, which cli.py owns."""
    imports = [
        f"{path.relative_to(ROOT)}:{line}: {module}"
        for path, tree in modules_with_their_trees()
        if path.name != "cli.py"
        for line, module in imported_modules(tree)
        if module.partition(".")[0] in ("json", "charts")
    ]
    assert imports == []
