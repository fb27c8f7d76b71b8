"""Every name a package module imports is used in that module.

A stdlib ``ast`` check, since the package has no linter.  ``__init__.py`` is
exempt: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stringymirror"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node):
    """Names inside an annotation, also when it is written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    source = "from math import comb, gcd\nimport os\n\ndef f(x: 'Iterable') -> int:\n    return gcd(x, 2)\n"
    assert unused_imports(source) == [(1, "comb"), (2, "os")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (PACKAGE / module).read_text()
    assert unused_imports(source) == []
