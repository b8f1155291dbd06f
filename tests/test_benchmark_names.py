"""The names the benchmark harness binds by string still exist in the package.

`perfbench/` wraps public layer functions by name, reads arguments by
position and passes some by keyword, so a rename there would otherwise surface
only in a long benchmark run. This check reads the same names and fails in
well under a second.
"""

import ast
import importlib
import inspect
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
# Per-layer names of stages, not functions: the pool stage and graph set-up.
STAGES = {"pool", "setup"}
# Functions the harness calls or reads arguments of directly: (module, name, leading
# params). A name is one the harness binds by keyword; None is a position it fills.
BOUND = [
    ("orienteering", "solve_op", (None, None, "start")),
    ("attack", "worst_case_attack", (None, "solution", "size")),
    ("graph", "resample_starts", ()),
    ("graph", "generate_scenario",
     ("n_vertices", "n_robots", "alpha", "budget", "layout", "bumps", "seed")),
    ("bench", "plan", ()),
    ("bench", "run_experiment", (None, "measure_time")),
    ("planner", "check_solution", ()),
]


def public_function(layer, name):
    """`rmop.<layer>.<name>` if it is a public plain function defined in that module.

    The same test the harness applies when it picks the functions to trace.
    """
    module = importlib.import_module(f"rmop.{layer}")
    obj = vars(module).get(name)
    ok = (inspect.isfunction(obj) and obj.__module__ == module.__name__
          and not name.startswith("_"))
    return obj if ok else None


def traced_functions():
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    parts = [m["name"].split(".") for m in metrics]
    return sorted({(p[0], p[1]) for p in parts if len(p) == 3 and p[1] not in STAGES})


def test_per_layer_metrics_name_functions():
    assert len(traced_functions()) >= 10


@pytest.mark.parametrize("layer, name", traced_functions(),
                         ids=[".".join(pair) for pair in traced_functions()])
def test_per_layer_function_exists(layer, name):
    assert public_function(layer, name) is not None, f"rmop.{layer}.{name}"


@pytest.mark.parametrize("layer, name, params", BOUND, ids=[f"{l}.{n}" for l, n, _ in BOUND])
def test_bound_function_keeps_its_signature(layer, name, params):
    func = public_function(layer, name)
    assert func is not None, f"rmop.{layer}.{name}"
    actual = list(inspect.signature(func).parameters)[:len(params)]
    assert len(actual) == len(params)
    for want, got in zip(params, actual):
        assert want is None or want == got, (name, actual)


def test_every_plan_call_fits_the_harness_wrapper():
    # The harness rebinds `bench.plan` to a wrapper taking (name, scenario, solver), so a
    # call with another argument would fail every benchmark sweep and no tier-1 test.
    calls = [(path.name, node.lineno, len(node.args), len(node.keywords))
             for path in sorted((ROOT / "src" / "rmop").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and "plan" in (getattr(node.func, "id", None),
                                                         getattr(node.func, "attr", None))]
    assert calls, "no call of plan found"
    assert [c for c in calls if c[2:] != (3, 0)] == []
