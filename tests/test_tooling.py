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


README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_readme_library_sketch_runs():
    # the sketch imports public names only and asserts what it shows, so a
    # name removed from the package cannot survive in the docs
    with open(README) as handle:
        section = handle.read().split("## Library sketch", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md: Library sketch", "exec"), {})


DIAG = os.path.join(SOURCES, "scenarios", "diag_three_gates.scn")


def test_diagnosis_checks_build_no_run():
    # the circuit system keeps its runs as an unbuilt view through the
    # checks `diagnose` and `check-bcs` make, and the tracer's run count
    # reads its length without building it
    from beliefchange.diagnosis import check_prop_diag
    from beliefchange.scenario import build_system, load_scenario
    from beliefchange.systems import bel, validate_bcs

    scenario = load_scenario(DIAG)
    sys_ = build_system(scenario)
    for s_a in sys_.index.prefix:
        bel(sys_, s_a)
    assert check_prop_diag(sys_, scenario.circuit).all_passed
    assert validate_bcs(sys_).all_passed
    name, runs_built = _tracer().WORK_COUNTS["systems.system"]
    assert name == "systems.runs_built"
    assert runs_built((sys_,)) == len(sys_.runs) == 5832
    assert sys_.runs._built is None


RANKED = os.path.join(SOURCES, "scenarios", "ranked_basic.scn")


@pytest.mark.parametrize("command", ["revise", "check-rev", "check-bcs"])
def test_ranked_commands_list_no_observation_prefixes(command, monkeypatch, capsys):
    # each command ANDs the observation prefixes it reads, and none of them
    # asks for the listing of every prefix
    from beliefchange import cli

    built = []
    build = cli.build_system
    monkeypatch.setattr(cli, "build_system", lambda scenario: built.append(build(scenario)) or built[-1])
    assert cli.main([command, "--scenario", RANKED, "--format", "machine"]) == 0
    capsys.readouterr()
    assert len(built) == 1
    assert "prefix" not in vars(built[0].index)


def test_a_system_decodes_no_run_of_its_own_view(monkeypatch):
    from beliefchange.scenario import build_system, load_scenario
    from beliefchange.systems import Runs, RunSystemError, System

    decoded = []
    get = Runs.__getitem__
    monkeypatch.setattr(Runs, "__getitem__", lambda runs, i: decoded.append(i) or get(runs, i))
    sys_ = build_system(load_scenario(RANKED))
    assert decoded == []
    # a view of other blocks, with the same run count and shapes, is still
    # checked against the blocks it is given
    blocks = sys_.blocks
    assert [len(factor) for factor in blocks[0]] == [len(factor) for factor in blocks[1]]
    other = Runs((blocks[1], blocks[0]) + blocks[2:])
    with pytest.raises(RunSystemError, match="run 0 is not the one its block expands to"):
        System(sys_.vocab, other, sys_.prior, sys_.horizon, sys_.universe, sys_.menu, blocks=blocks)
    assert decoded
