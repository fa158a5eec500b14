"""The benchmark's tracer names package functions by string; every name it
traces must still exist, or ``perfbench/run.py --trace`` breaks."""
import ast
import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracer().TARGETS


@pytest.mark.parametrize("metric", sorted(TARGETS))
def test_traced_name_resolves_on_the_package(metric):
    module_name, attr = TARGETS[metric]
    module = importlib.import_module(f"beliefchange.{module_name}")
    if attr == "*.compare":
        owners = [
            cls for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and "compare" in vars(cls)
        ]
        assert owners, f"no class in {module.__name__} defines compare"
    elif "." in attr:
        cls_name, method = attr.split(".")
        # the tracer patches the method on the class that defines it
        assert callable(vars(getattr(module, cls_name)).get(method)), attr
    else:
        assert callable(getattr(module, attr, None)), attr


SOURCES = os.path.join(os.path.dirname(__file__), "..", "src", "beliefchange")
SAMPLERS = ("sample", "randrange", "randint")


def test_no_checker_draws_random_samples():
    # every verdict is exhaustive, by construction or a BudgetError; only
    # random_structure draws, from its caller's generator
    found = []
    for name in sorted(os.listdir(SOURCES)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SOURCES, name)) as handle:
            tree = ast.parse(handle.read())
        for top in tree.body:
            if getattr(top, "name", None) == "random_structure":
                continue
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr in SAMPLERS or (
                    func.attr == "Random" and getattr(func.value, "id", None) == "random"
                ):
                    found.append(f"{name}:{node.lineno}")
    assert found == []
