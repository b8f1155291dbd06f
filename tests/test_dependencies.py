"""The package imports nothing beyond numpy and the standard library.

scipy and networkx may be installed where the tests run, so a stray import
of either would otherwise pass here and fail for a user with numpy alone.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rmop"
ALLOWED = {"numpy"} | set(sys.stdlib_module_names)


def foreign_imports(source):
    """Top-level names of the absolute imports in `source` outside ALLOWED."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return [name for name in names if name not in ALLOWED]


def test_package_imports_only_numpy_and_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {m.name: foreign_imports(m.read_text(encoding="utf-8")) for m in modules}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_a_stray_import_is_caught():
    source = ("import numpy as np\nimport math\nfrom . import graph\nfrom .reward import eval_team\n"
              "import scipy.sparse\nfrom networkx import Graph\n")
    assert foreign_imports(source) == ["scipy", "networkx"]
