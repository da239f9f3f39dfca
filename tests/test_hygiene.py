"""Source hygiene without a linter: every module of the package and of the
tests uses each name it imports, every module-level function or class of
the package is read somewhere in src/, tests/ or bench/, and so is every
field of a package `namedtuple` record, as an attribute.  An import line marked
`# noqa: F401` is kept on purpose (a module attribute that bench/tracing.py
wraps) and is exempt from the first check; every name on such a line of the
package is the attribute of a `TARGETS` entry of bench/tracing.py for its
module.  A module-level `__getattr__` (PEP 562), which only the interpreter
calls, is exempt from the second."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cyclide"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))
READERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
# the module-level function the interpreter calls on attribute lookup (PEP 562)
MODULE_HOOK = "__getattr__"
# the mark of an import kept for the tracer though the module never reads it
KEPT = "# noqa: F401"
TRACING = ROOT / "bench" / "tracing.py"


def _imports(source: str, kept: bool):
    """(line, name) of every name imported by source, on the lines marked
    KEPT if kept, else on the others; `__future__` imports are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if kept == any(KEPT in line for line in lines[node.lineno - 1:node.end_lineno]):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def unused_imports(source: str):
    """(line, name) of every imported name that the module never reads."""
    imported = {name: line for line, name in _imports(source, kept=False)}
    used = {n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught():
    src = ("from math import sqrt, hypot\n"
           "from os import sep  # noqa: F401\n"
           "def f(x):\n"
           "    return hypot(x, x)\n")
    assert unused_imports(src) == [(1, "sqrt")]


def untraced_kept_imports(source: str, module: str, tracing_source: str):
    """(line, name) of every name on a KEPT import line of source that no
    `TARGETS` entry of tracing_source names as an attribute of module."""
    for node in ast.parse(tracing_source).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS":
            traced = {(m, attr) for m, attr, _ in ast.literal_eval(node.value)}
    return [(line, name) for line, name in _imports(source, kept=True)
            if (module, name) not in traced]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_kept_import_is_traced(path):
    tracing = TRACING.read_text(encoding="utf-8")
    assert untraced_kept_imports(path.read_text(encoding="utf-8"),
                                 f"cyclide.{path.stem}", tracing) == []


def test_an_untraced_kept_import_is_caught():
    tracing = 'TARGETS = (("pkg.mod", "sep", "os.sep"), ("pkg.other", "sqrt", "math.sqrt"))\n'
    src = ("from os import sep, path  # noqa: F401\n"
           "from math import sqrt  # noqa: F401\n"
           "from math import hypot\n")
    assert untraced_kept_imports(src, "pkg.mod", tracing) == [(1, "path"), (2, "sqrt")]


def unread_definitions(package_sources, reader_sources):
    """Names of the module-level functions and classes defined in
    package_sources that no source in reader_sources reads: as a name
    loaded, an attribute, or a name imported from a module.  MODULE_HOOK
    is not counted."""
    defined = set()
    for source in package_sources:
        defined.update(node.name for node in ast.parse(source).body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                            ast.ClassDef))
                       and node.name != MODULE_HOOK)
    read = set()
    for source in reader_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(defined - read)


def unread_fields(package_sources, reader_sources):
    """(record, field) of every field of a record defined in package_sources
    as `class Record(namedtuple("Record", "fields"))` that no source in
    reader_sources reads as an attribute."""
    fields = []
    for source in package_sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                if (isinstance(base, ast.Call) and isinstance(base.func, ast.Name)
                        and base.func.id == "namedtuple"):
                    names = base.args[1].value.replace(",", " ").split()
                    fields += [(node.name, name) for name in names]
    read = {node.attr for source in reader_sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(field for field in fields if field[1] not in read)


@pytest.fixture(scope="module")
def sources():
    """{path: text} of the package and of its readers, and the package texts."""
    texts = {p: p.read_text(encoding="utf-8") for p in READERS}
    package = [text for p, text in texts.items() if p.parent == PACKAGE]
    assert package
    return texts, package


def test_every_function_and_class_is_read(sources):
    texts, package = sources
    assert unread_definitions(package, texts.values()) == []


def test_every_record_field_is_read(sources):
    texts, package = sources
    assert unread_fields(package, texts.values()) == []


def test_an_unread_helper_is_caught():
    package = ("def used(x):\n    return x\n"
               "def orphan(x):\n    return used(x)\n"
               "class Kept:\n    pass\n"
               "class Lost:\n    pass\n")
    reader = ("from pkg import Kept\n"
              "import pkg\n"
              "pkg.used(1)\n")
    assert unread_definitions([package], [package, reader]) == ["Lost", "orphan"]


def test_an_unread_helper_beside_a_module_hook_is_caught():
    package = ("def _load(name):\n    return name\n"
               "def _unread(name):\n    return name\n"
               "def __getattr__(name):\n    return _load(name)\n"
               "def __dir__():\n    return []\n")
    assert unread_definitions([package], [package]) == ["__dir__", "_unread"]


def test_an_unread_field_is_caught():
    package = ("from collections import namedtuple\n"
               "class Rec(namedtuple('Rec', 'kept, lost stored')):\n"
               "    pass\n")
    reader = ("def f(r):\n"
              "    r.stored = 1\n"
              "    return r.kept\n")
    assert unread_fields([package], [package, reader]) == [("Rec", "lost"), ("Rec", "stored")]
