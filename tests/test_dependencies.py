"""The package imports nothing beyond numpy and the standard library, keeps no lazy cache,
reads every dataclass field it stores and calls every function and class it defines.

scipy and networkx may be installed where the tests run, so a stray import
of either would otherwise pass here and fail for a user with numpy alone.
A cache would let a timed call skip real work, and a value written through
`__dict__` bypasses the frozen types that check every field once. A field
that no production code reads is work that no output shows, and a definition that only
tests call is code that no user path runs.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rmop"
ALLOWED = {"numpy"} | set(sys.stdlib_module_names)
CACHES = {"cache", "lru_cache", "cached_property"}
# cli.solution_to_document writes a BoundReport whole, through dataclasses.asdict.
READ_WHOLE = {"BoundReport"}


def foreign_imports(source):
    """Top-level names of the absolute imports in `source` outside ALLOWED."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return [name for name in names if name not in ALLOWED]


def lazy_caches(source):
    """`functools` caches that `source` names, and its assignments through `<expr>.__dict__[...]`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"functools.{a.name}" for a in node.names if a.name in CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(f"functools.{node.attr}")
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Attribute) and node.value.attr == "__dict__"):
            found.append(f"__dict__ write at line {node.lineno}")
    return found


def is_dataclass(decorator):
    """Whether `decorator` is `dataclass` or `dataclasses.dataclass`, called or bare."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def unread_fields(sources):
    """`Class.field` for each dataclass field in `sources` whose name no attribute load reads.

    The match is by name alone, across all of `sources`: a field passes when any
    attribute of that name is read, so `SgaTrace.gains` once passed because
    `IncrementalEval.gains` is read. Classes in READ_WHOLE are skipped.
    """
    fields, loaded = [], set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.ClassDef) and node.name not in READ_WHOLE
                    and any(is_dataclass(d) for d in node.decorator_list)):
                fields += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return [name for name in fields if name.split(".")[1] not in loaded]


def uncalled_definitions(sources):
    """Each non-dunder function and class in `sources` whose name no Name or Attribute load reads.

    Methods are named `Class.method`. The match is by name alone, across all of `sources`:
    a definition passes when anything of that name is read, so `RewardModel.coverage` once
    passed because `Vertex.coverage` is read.
    """
    defined, loaded = [], set()
    for source in sources:
        tree = ast.parse(source)
        owner = {stmt: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for stmt in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append(f"{owner[node]}.{node.name}" if node in owner else node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return [name for name in defined if name.rsplit(".", 1)[-1] not in loaded]


def test_package_imports_only_numpy_and_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {m.name: foreign_imports(m.read_text(encoding="utf-8")) for m in modules}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_a_stray_import_is_caught():
    source = ("import numpy as np\nimport math\nfrom . import graph\nfrom .reward import eval_team\n"
              "import scipy.sparse\nfrom networkx import Graph\n")
    assert foreign_imports(source) == ["scipy", "networkx"]


def test_package_keeps_no_lazy_cache():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {m.name: lazy_caches(m.read_text(encoding="utf-8")) for m in modules}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_a_stray_cache_is_caught():
    source = ("import functools\nfrom functools import reduce, lru_cache\n"
              "total = functools.reduce(max, [1])\nvalue = obj.__dict__['x']\n"
              "@functools.cached_property\ndef f(self): return 1\n"
              "@functools.cache\ndef g(): return 2\n"
              "self.__dict__['euclidean'] = True\n")
    assert sorted(lazy_caches(source)) == sorted([
        "functools.lru_cache", "functools.cached_property", "functools.cache",
        "__dict__ write at line 9"])


def test_package_reads_every_dataclass_field():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert unread_fields(m.read_text(encoding="utf-8") for m in modules) == []


def test_an_unread_field_is_caught():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass Kept:\n    read: int\n    stray: int\n"
              "    LIMIT = 3\n    def twice(self): return 2 * self.read\n"
              "@dataclasses.dataclass\nclass Also:\n    unused: float\n"
              "class Plain:\n    ignored: int\n"
              "@dataclass\nclass BoundReport:\n    written_whole: float\n"
              "def f(kept): kept.stray = 1\n")
    assert unread_fields([source]) == ["Kept.stray", "Also.unused"]


def test_package_calls_every_definition():
    # __init__.py only re-exports, and an export is not a call.
    modules = [m for m in sorted(SRC.glob("*.py")) if m.name != "__init__.py"]
    assert modules
    assert uncalled_definitions(m.read_text(encoding="utf-8") for m in modules) == []


def test_an_uncalled_definition_is_caught():
    source = ("class Kept:\n    def used(self): return self.helper()\n"
              "    def helper(self): return 1\n    def stray(self): return 2\n"
              "    def __repr__(self): return 'Kept'\n    def coverage(self): return ()\n"
              "class Unused:\n    pass\n"
              "def orphan(vertex):\n    def inner(): return 0\n"
              "    return Kept().used(), vertex.coverage\n"
              "def caller(): return orphan(None)\n")
    assert sorted(uncalled_definitions([source])) == ["Kept.stray", "Unused", "caller", "inner"]
