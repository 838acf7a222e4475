"""Source hygiene checks on the package modules."""

import ast
import builtins
import json
import re
from pathlib import Path

import pytest

import riccicrit

PACKAGE = Path(riccicrit.__file__).parent
TRACING = PACKAGE.parent.parent / "perfbench" / "tracing.py"
BENCHMARK = PACKAGE.parent.parent / "BENCHMARK.json"
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"
# __init__.py imports only to re-export.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.AST) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.AST) -> set[str]:
    """Every name read in the module, string annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= _used_names(ast.parse(part.value, mode="eval"))
    return used


def _names(source: str) -> tuple[dict[str, int], set[str]]:
    tree = ast.parse(source)
    return _imported_names(tree), _used_names(tree)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    imported, used = _names(path.read_text(encoding="utf-8"))
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_unused_import_check_sees_annotations():
    source = (
        "from typing import Iterable, Mapping\n"
        "import os.path\n"
        "from x import Quoted, Unused\n"
        "def f(a: Iterable) -> 'Quoted | None':\n"
        "    return os.path.sep\n"
    )
    imported, used = _names(source)
    assert sorted(name for name in imported if name not in used) == ["Mapping", "Unused"]


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names a module or statement reads, the attributes it reads and the names it imports."""
    names = _used_names(tree) | set(_imported_names(tree))
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names


def _unreferenced(sources: dict[str, str], checked) -> list[str]:
    """Module-level functions and classes, of those ``checked(module, name)``
    selects, that nothing outside their own definition references: a
    definition that only calls itself is dead too."""
    statements = [(name, node) for name, source in sources.items() for node in ast.parse(source).body]
    referenced = [_referenced_names(node) for _, node in statements]
    return sorted(
        f"{name}: {node.name} (line {node.lineno})"
        for k, (name, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and checked(name, node.name)
        and not any(node.name in names for other, names in enumerate(referenced) if other != k)
    )


def _orphans(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes that nothing references."""
    return _unreferenced(sources, lambda module, name: name.startswith("_") and not name.startswith("__"))


def _wrapped(source: str) -> set[tuple[str, str]]:
    """(module file, module-level name) of each function or class a ``WRAPPED``
    table of (module, "name" or "Class.method", span) entries wraps."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets):
            return {(f"{module}.py", attr.split(".")[0]) for module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("no WRAPPED table")


def _unused_public(sources: dict[str, str], wrapped: set[tuple[str, str]]) -> list[str]:
    """Public module-level functions and classes of the underscore modules
    that nothing references and no tracer hook wraps: an underscore module
    has no callers outside the package but the tracer."""
    return _unreferenced(
        sources,
        lambda module, name: module.startswith("_")
        and module != "__init__.py"
        and not name.startswith("_")
        and (module, name) not in wrapped,
    )


def test_every_private_helper_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    orphans = _orphans(sources)
    assert not orphans, f"private helpers nothing references: {', '.join(orphans)}"


def test_orphan_check_counts_other_modules_and_attributes():
    sources = {
        "a.py": 'def _used(): pass\ndef _orphan(): "_orphan in a docstring is no use"\nclass _Kept: pass\n',
        "b.py": "from .a import _used\nimport a\nx: '_Kept' = a._orphan\n",
    }
    assert _orphans(sources) == []
    sources["b.py"] = "from .a import _used\n"
    assert _orphans(sources) == ["a.py: _Kept (line 3)", "a.py: _orphan (line 2)"]


def test_orphan_check_ignores_a_helpers_own_body():
    sources = {
        "a.py": (
            "def _walk(n):\n    return _walk(n - 1) if n else 0\n"
            "class _Node:\n    def copy(self):\n        return _Node()\n"
            "def _used():\n    return 1\n"
            "x = _used()\n"
        ),
    }
    assert _orphans(sources) == ["a.py: _Node (line 3)", "a.py: _walk (line 1)"]


def test_every_public_name_of_an_underscore_module_is_used():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    unused = _unused_public(sources, _wrapped(TRACING.read_text(encoding="utf-8")))
    assert not unused, f"underscore-module names nothing uses or traces: {', '.join(unused)}"


def test_unused_public_check_reads_the_tracer_table():
    sources = {
        "_a.py": "def used(): pass\ndef traced(): pass\nclass Traced: pass\ndef dead():\n    return dead()\n",
        "b.py": "from ._a import used\ndef public(): pass\n",
        "__init__.py": "",
    }
    wrapped = _wrapped(
        'WRAPPED = (("_a", "traced", "a.traced"), ("_a", "Traced.__init__", "a.t"), ("b", "public", "b.p"))\n'
    )
    assert wrapped == {("_a.py", "traced"), ("_a.py", "Traced"), ("b.py", "public")}
    assert _unused_public(sources, wrapped) == ["_a.py: dead (line 4)"]
    assert _unused_public(sources, set()) == ["_a.py: Traced (line 3)", "_a.py: dead (line 4)", "_a.py: traced (line 2)"]


def _package_imports(sources: dict[str, str]) -> dict[str, set[str]]:
    """Each module's package modules that it imports, at module level or
    inside a function, relative (``from . import b``, ``from .b import f``)
    or absolute (``import riccicrit.b``, ``from riccicrit.b import f``)."""
    modules = {name.removesuffix(".py") for name in sources}
    graph = {}
    for name, source in sources.items():
        found = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if not node.level:
                    if module.split(".")[0] != "riccicrit":
                        continue
                    module = module.partition(".")[2]
                found |= {module.split(".")[0]} if module else {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("riccicrit.")}
        graph[name.removesuffix(".py")] = found & modules
    return graph


def _import_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of ``graph`` as the modules along it, the first repeated at the end, or None."""
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> list[str] | None:
        if module in path:
            return path[path.index(module) :] + [module]
        if module in done:
            return None
        for imported in sorted(graph[module]):
            cycle = visit(imported, path + [module])
            if cycle:
                return cycle
        done.add(module)
        return None

    for module in sorted(graph):
        cycle = visit(module, [])
        if cycle:
            return cycle
    return None


def test_package_imports_form_no_cycle():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    graph = _package_imports(sources)
    assert {"curvature", "errors"} <= graph["solvers"]
    cycle = _import_cycle(graph)
    assert cycle is None, f"riccicrit modules import each other in a cycle: {' -> '.join(cycle)}"


def test_import_cycle_check_counts_imports_inside_functions():
    sources = {
        "__init__.py": "from .a import f\n",
        "a.py": "import os\nfrom .b import g\ndef f():\n    return g()\n",
        "b.py": "def g():\n    from . import a\n    return a\n",
        "c.py": "import riccicrit.a\nfrom riccicrit.b import g\nfrom riccicrit import errors\n",
    }
    assert _package_imports(sources) == {"__init__": {"a"}, "a": {"b"}, "b": {"a"}, "c": {"a", "b"}}
    assert _import_cycle(_package_imports(sources)) == ["a", "b", "a"]
    sources["b.py"] = "def g():\n    from .c import h\n"
    assert _import_cycle(_package_imports(sources)) == ["a", "b", "c", "a"]
    sources["c.py"] = "import riccicrit.errors\n"
    assert _import_cycle(_package_imports(sources)) is None


# A double-backtick reference that is a name, alone or called, indexed or dotted.
_DOC_REFERENCE = re.compile(r"``([A-Za-z_]\w*)(?=``|[.(\[])")


def _bound_names(tree: ast.AST) -> set[str]:
    """Names a module binds: definitions, arguments, assignment targets and
    imports, plus the modules it imports and the attributes it reads off them."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.update((node.module or "").split("."))
            names.update(alias.asname or alias.name for alias in node.names)
    attributes = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    return names | modules | attributes


def _stale_references(sources: dict[str, str], extra: set[str]) -> list[str]:
    """Double-backtick names in ``sources`` that no module binds and that are
    neither builtins nor in ``extra``."""
    known = set(dir(builtins)) | extra
    for source in sources.values():
        known |= _bound_names(ast.parse(source))
    return sorted(
        f"{name}: ``{ref}``" for name, source in sources.items() for ref in set(_DOC_REFERENCE.findall(source))
        if ref not in known
    )


def test_doc_references_name_what_the_package_has():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    workloads = {w["name"] for w in json.loads(BENCHMARK.read_text(encoding="utf-8"))["workloads"]}
    stale = _stale_references(sources, workloads)
    assert not stale, f"docs name what the package does not have: {', '.join(stale)}"


def test_stale_reference_check_flags_a_deleted_helper():
    sources = {
        "a.py": (
            'import itertools\nfrom .b import _kept\n'
            'def f(rows):\n    """``rows`` by ``itertools.groupby``; ``len(rows)`` from ``_kept`` in ``solve``,\n'
            '    and the cofactors of a singular point as minors (``_minor_row(mats, 0)``)."""\n'
            '    return itertools.groupby(rows)\n'
        ),
    }
    assert _stale_references(sources, {"solve"}) == ["a.py: ``_minor_row``"]
    assert _stale_references(sources, set()) == ["a.py: ``_minor_row``", "a.py: ``solve``"]


def _python_floor() -> tuple[int, int]:
    """The (major, minor) of pyproject's ``requires-python = ">=X.Y"``."""
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(encoding="utf-8"), re.M)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def _parses_at(source: str, version: tuple[int, int]) -> bool:
    try:
        ast.parse(source, feature_version=version)
    except SyntaxError:
        return False
    return True


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_modules_parse_at_the_declared_python_floor(path):
    floor = _python_floor()
    assert _parses_at(path.read_text(encoding="utf-8"), floor), f"{path.name} needs a Python newer than {floor}"


def test_python_floor_check_rejects_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert not _parses_at(source, (3, 10))
    assert _parses_at(source, (3, 11))


def _raised_names(sources: dict[str, str]) -> set[str]:
    """Names of the exceptions the ``raise`` statements of ``sources`` raise,
    bare or called, plain or dotted."""
    names = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_exported_exception_is_raised():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    exported = {
        name for name, obj in vars(riccicrit).items() if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    assert exported
    unraised = sorted(exported - _raised_names(sources))
    assert not unraised, f"riccicrit exports exceptions nothing raises: {', '.join(unraised)}"


def test_raised_name_check_reads_raise_statements_only():
    sources = {
        "a.py": (
            "class AError(Exception): pass\n"
            "def f():\n    raise AError('x')\n"
            "def g():\n    try:\n        raise errors.BError\n    except CError:\n        raise\n"
        ),
    }
    assert _raised_names(sources) == {"AError", "BError"}


ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"


def _private_reads(source: str) -> list[str]:
    """Names with one leading underscore that a module imports, or reads as attributes."""

    def private(name: str) -> bool:
        return any(part.startswith("_") and not part.startswith("__") for part in name.split("."))

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            found += [
                f"import {alias.name} (line {node.lineno})"
                for alias in node.names
                if private(module) or private(alias.name)
            ]
        elif isinstance(node, ast.Attribute) and private(node.attr):
            found.append(f".{node.attr} (line {node.lineno})")
    return sorted(found)


def test_acceptance_criteria_read_only_public_names():
    private = _private_reads(ACCEPTANCE.read_text(encoding="utf-8"))
    assert not private, f"the acceptance criteria reach past the public API: {', '.join(private)}"


def test_private_read_check_flags_imports_and_attributes():
    source = (
        "import riccicrit._detcube\n"
        "from riccicrit.solvers import _flips, greedy_schedule\n"
        "from riccicrit import _detcube\n"
        "def _local_helper(inst):\n"
        "    return inst._setup.rho, inst.__class__, _local_helper\n"
    )
    assert _private_reads(source) == [
        "._setup (line 5)",
        "import _detcube (line 3)",
        "import _flips (line 2)",
        "import riccicrit._detcube (line 1)",
    ]
