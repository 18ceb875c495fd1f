"""Every name a module imports or defines is used, or exported through ``__all__``.

Neither pyflakes nor ruff is a dependency, so this walks each module's
syntax tree: a name bound by ``import`` or ``from ... import`` must be
read somewhere in the module (annotations included) or listed in the
module's ``__all__``.  ``__init__`` modules only re-export and are skipped.
A module-level function, class or constant that its module does not
export must be read somewhere in the package: in its own module, or
imported by another.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blochvar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _exports(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    exported = _exports(tree)
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used and name not in exported
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "import math\nfrom os import path, sep\n__all__ = ['sep']\nx = math.pi\n"
    assert _unused_imports(source) == ["line 2: path"]


def _definitions(tree: ast.Module) -> dict[str, int]:
    # Module-level functions, classes and assigned names, dunders aside.
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    defined[target.id] = node.lineno
    return defined


def _unread_names(sources: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in _definitions(tree).items()
        if name not in read and name not in _exports(tree)
    ]


def test_no_unread_module_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _unread_names(sources) == []


def test_unread_name_is_reported():
    sources = {
        "a": (
            "__all__ = ['f']\nLIMIT = 3\n_SPARE: int = 4\n"
            "def f():\n    return _g()\ndef _g():\n    return 0\nclass _Dead:\n    pass\n"
        ),
        "b": "from .a import LIMIT\nx = LIMIT\n",
    }
    assert _unread_names(sources) == ["a line 3: _SPARE", "a line 8: _Dead", "b line 2: x"]
