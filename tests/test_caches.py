"""``src/`` keeps per-vector state in one bounded cache: the record cache of
``weights``.  A stdlib ``ast`` check, like ``test_imports``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stringymirror"
CACHE_NAMES = {"lru_cache", "cache", "cached_property"}


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _maxsize(call: ast.Call, constants):
    args = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
    if not args:
        return None
    if isinstance(args[0], ast.Name):
        return constants.get(args[0].id)
    return getattr(args[0], "value", None)


def cache_uses(source: str):
    """(line, finite) for every use of a functools cache outside imports,
    in line order: finite when it is called with a positive integer maxsize,
    given directly or as a module-level constant."""
    tree = ast.parse(source)
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    calls = {
        id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)
    }
    out = []
    for node in ast.walk(tree):
        if _name(node) in CACHE_NAMES:
            call = calls.get(id(node))
            size = None if call is None else _maxsize(call, constants)
            finite = type(size) is int and size > 0
            out.append((node.lineno, finite))
    return sorted(out)


def test_checker_sees_every_cache_form():
    source = (
        "import functools\nfrom functools import lru_cache\nSIZE = 8\n"
        "@lru_cache(maxsize=SIZE)\ndef f(x): return x\n"
        "@functools.lru_cache(None)\ndef g(x): return x\n"
        "@functools.cache\ndef h(x): return x\n"
        "k = lru_cache(maxsize=4)(len)\n"
    )
    assert cache_uses(source) == [(4, True), (6, False), (8, False), (10, True)]


def test_src_has_one_bounded_cache():
    uses = {
        path.name: cache_uses(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    found = [(name, use) for name, module in uses.items() for use in module]
    assert len(found) == 1, found
    name, (_, finite) = found[0]
    assert name == "weights.py" and finite
