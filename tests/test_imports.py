"""Every name a package module imports is used in that module, no module
reads the environment, no module has an ``assert`` statement, the
orbifold pipeline and the stringy (face) pipeline import nothing from each
other, every private module-level definition is used, and the reach sets
stay inside ``weights``.

Stdlib ``ast`` checks, since the package has no linter.  ``__init__.py`` is
exempt from the first: its imports are the public re-exports.  The second
keeps the output a function of the CLI arguments alone: a setting read from
``os.environ`` or ``os.getenv`` would be a knob that no flag shows.  The
third keeps every internal guard alive under ``python -O``, which compiles
``assert`` statements out: a guard raises a ``StringyMirrorError`` instead.
The fourth keeps the mirror identity a cross-check of two independent
computations.  The fifth finds dead code: every module-level private
function and class is referenced somewhere in the package outside its own
definition, except the ``_cmd_*`` handlers, which ``cli.main`` looks up by
name.  The sixth keeps the reach sets' bit layout one module's business:
no module but ``weights`` imports or reads ``_reach``, ``_reach_sets`` or
``_extend_reach``, so the stringy pipeline checks its brackets with counts
of its own.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stringymirror"
ALL_MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
MODULES = [name for name in ALL_MODULES if name != "__init__.py"]


def _annotation_names(node):
    """Names inside an annotation, also when it is written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _used_names(tree):
    """Names the tree uses, also inside annotations written as strings."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _used_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    source = "from math import comb, gcd\nimport os\n\ndef f(x: 'Iterable') -> int:\n    return gcd(x, 2)\n"
    assert unused_imports(source) == [(1, "comb"), (2, "os")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (PACKAGE / module).read_text()
    assert unused_imports(source) == []


def environment_reads(source: str):
    """(line, name) of every read of os.environ / os.getenv, also through
    ``from os import ...`` or an alias of os."""
    tree = ast.parse(source)
    os_names = {"os"}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names |= {a.asname for a in node.names if a.name == "os" and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            hits += [
                (node.lineno, a.name) for a in node.names if a.name in ("environ", "getenv")
            ]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
        ):
            hits.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(hits)


def test_checker_flags_environment_reads():
    source = (
        "import os\nimport os as system\nfrom os import getenv\n"
        "a = os.environ.get('X')\nb = system.getenv('Y')\nc = os.path.sep\n"
    )
    assert environment_reads(source) == [
        (3, "getenv"), (4, "os.environ"), (5, "system.getenv")
    ]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_environment_reads(module):
    assert environment_reads((PACKAGE / module).read_text()) == []


def assert_statements(source: str):
    """The line of every ``assert`` statement."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_checker_flags_an_assert():
    source = "def f(x):\n    assert x > 0, 'gone under -O'\n    return x\n"
    assert assert_statements(source) == [2]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_assert_statements(module):
    assert assert_statements((PACKAGE / module).read_text()) == []


def package_imports(source: str):
    """The package modules a module imports from, by their names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # from . import x
                names |= {a.name for a in node.names}
    return names


def test_checker_finds_package_imports():
    source = "from .stringy import hodge_table\nfrom . import orbifold\nimport math\n"
    assert package_imports(source) == {"stringy", "orbifold"}


def test_halves_share_nothing_past_the_kernel():
    # the mirror identity is a cross-check only while the two pipelines are
    # separate code: the orbifold side reaches neither the face assembly nor
    # the stringy half, and neither of those reaches the orbifold side
    imports = {
        name: package_imports((PACKAGE / f"{name}.py").read_text())
        for name in ("orbifold", "stringy", "face_epoly")
    }
    assert imports["orbifold"].isdisjoint({"stringy", "face_epoly"})
    assert "orbifold" not in imports["stringy"] | imports["face_epoly"]


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced_private_definitions(sources):
    """(module, name) of every module-level private function or class, other
    than a ``_cmd_*`` handler, whose name no module of ``sources`` (module
    name to source) uses outside the definition itself: as a name, an
    attribute or a name in a string annotation."""
    defined = []
    used = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = node.name if isinstance(node, _DEFINITIONS) else None
            if own and own.startswith("_") and not own.startswith(("__", "_cmd_")):
                defined.append((module, own))
            attributes = {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
            used |= (_used_names(node) | attributes) - {own}
    return sorted((module, name) for module, name in defined if name not in used)


def test_checker_flags_an_unreferenced_private_definition():
    sources = {
        "a.py": (
            "def _called():\n    return 1\n\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
            "def _cmd_run(args):\n    return 0\n\n"
            "class _Unused:\n    pass\n\n"
            "def __getattr__(name):\n    raise AttributeError(name)\n\n"
            "def public():\n    return _called()\n"
        ),
        "b.py": (
            "from . import c\n\n"
            "class _Annotated:\n    pass\n\n"
            "def f(x: '_Annotated') -> int:\n    return c._Reached()\n"
        ),
        "c.py": "class _Reached:\n    pass\n",
    }
    assert unreferenced_private_definitions(sources) == [
        ("a.py", "_Unused"), ("a.py", "_recursive")
    ]


def test_no_unreferenced_private_definitions():
    sources = {name: (PACKAGE / name).read_text() for name in ALL_MODULES}
    assert unreferenced_private_definitions(sources) == []


_REACH_NAMES = {"_reach", "_reach_sets", "_extend_reach"}


def reach_set_reads(source):
    """(line, name) of every import or attribute read of a reach-set helper
    of ``weights``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            hits += [(node.lineno, a.name) for a in node.names if a.name in _REACH_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in _REACH_NAMES:
            hits.append((node.lineno, node.attr))
    return sorted(hits)


def test_checker_flags_reach_set_reads():
    source = (
        "from .weights import _reach, record\nfrom . import weights\n"
        "R = weights._reach_sets((1, 2))\nS = weights._extend_reach(R, 3, 6)\n"
    )
    assert reach_set_reads(source) == [(1, "_reach"), (3, "_reach_sets"), (4, "_extend_reach")]


@pytest.mark.parametrize("module", [name for name in ALL_MODULES if name != "weights.py"])
def test_reach_sets_stay_in_weights(module):
    assert reach_set_reads((PACKAGE / module).read_text()) == []
