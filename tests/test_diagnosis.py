import itertools
import os
import random

import pytest

from beliefchange.diagnosis import (
    Circuit,
    DiagnosisError,
    Gate,
    build_diag_system,
    check_prop_diag,
    consistent_states,
    diag,
    fault_consistent_with,
    fault_projection,
    parse_circuit,
    revision_report,
)
from beliefchange.formulas import Atom, Not, conj
from beliefchange.revision import validate_rev
from beliefchange.scenario import load_scenario
from beliefchange.systems import Run, bel, validate_bcs

AND_GATE = Circuit([Gate("c1", "AND", ("l1", "l2"), "l3")])

THREE_GATE_TEXT = """
gate c1 AND l1 l2 -> l4
gate c2 OR l2 l3 -> l5
gate c3 XOR l4 l5 -> l6
observe l1 l2 l3 l6
test l1=1 l2=1 l3=0
test l1=0 l2=1 l3=1
"""


def io_for(circuit, sys_, values):
    """The menu reading showing the given observed-line values."""
    target = {f"h_{l}": v for l, v in values.items()}
    for o in sys_.menu:
        ext = sys_.vocab.extension(o)
        worlds = ext & sys_.universe
        if worlds and all(
            sys_.vocab.truth(next(iter(worlds)), k) == v for k, v in target.items()
        ):
            if all(all(sys_.vocab.truth(w, k) == v for k, v in target.items()) for w in worlds):
                return o
    raise AssertionError(f"no menu reading for {values}")


# ---------------------------------------------------------------------------
# states


def test_consistent_states_fault_free_and_gate():
    states = consistent_states(AND_GATE)
    nofault = [s for s in states if not AND_GATE.fault_set(s)]
    assert len(nofault) == 4  # inputs free, output forced
    for s in nofault:
        assert AND_GATE.line_value(s, "l3") == (
            AND_GATE.line_value(s, "l1") and AND_GATE.line_value(s, "l2")
        )


def test_consistent_states_faulty_gate_unconstrained():
    states = consistent_states(AND_GATE)
    faulty = [s for s in states if AND_GATE.fault_set(s) == frozenset({"c1"})]
    assert len(faulty) == 8  # output free


def test_consistent_states_two_gate_chain():
    chain = Circuit(
        [Gate("c1", "AND", ("l1", "l2"), "l3"), Gate("c2", "NOT", ("l3",), "l4")]
    )
    states = consistent_states(chain)
    nofault = [s for s in states if not chain.fault_set(s)]
    assert len(nofault) == 4  # both truth tables compose
    for s in nofault:
        assert chain.line_value(s, "l4") == (not chain.line_value(s, "l3"))


def test_circuit_rejects_cycles_and_double_drivers():
    with pytest.raises(DiagnosisError):
        Circuit([Gate("c1", "NOT", ("l1",), "l2"), Gate("c2", "NOT", ("l2",), "l1")])
    with pytest.raises(DiagnosisError):
        Circuit(
            [Gate("c1", "NOT", ("l1",), "l2"), Gate("c2", "NOT", ("l3",), "l2")]
        )


# ---------------------------------------------------------------------------
# the diagnosis system


@pytest.fixture(scope="module")
def and_sys():
    return build_diag_system(AND_GATE, [{"l1": True, "l2": True}])


def test_initially_believes_fault_free(and_sys):
    assert diag(and_sys, AND_GATE, ()) == frozenset({frozenset()})
    # the belief extension is exactly the fault-free slice of the universe
    nofault = frozenset(w for w in and_sys.universe if not AND_GATE.fault_set(w))
    assert bel(and_sys, ()) == nofault


def test_consistent_observation_keeps_fault_free(and_sys):
    good = io_for(AND_GATE, and_sys, {"l1": True, "l2": True, "l3": True})
    assert diag(and_sys, AND_GATE, (good,)) == frozenset({frozenset()})


def test_surprising_observation_switches_to_minimal_faults(and_sys):
    bad = io_for(AND_GATE, and_sys, {"l1": True, "l2": True, "l3": False})
    assert diag(and_sys, AND_GATE, (bad,)) == frozenset({frozenset({"c1"})})


def test_bcs_holds(and_sys):
    assert validate_bcs(and_sys).all_passed


def test_prop_diag_single_gate(and_sys):
    report = check_prop_diag(and_sys, AND_GATE)
    assert report.all_passed, report.to_text()


def test_revision_profile(and_sys):
    report = revision_report(and_sys, AND_GATE)
    assert not report["REV1"].passed  # line values change between tests
    assert report["REV2"].passed  # cardinality prior is a ranking
    assert report["REV3"].passed
    assert not report["REV4"].passed  # fault observations cannot be made
    assert report["REV4'"].passed


def test_fault_projection_is_static(and_sys):
    projected = fault_projection(and_sys, AND_GATE)
    report = validate_rev(projected)
    assert report["REV1"].passed
    assert report["REV2"].passed
    assert report["REV3"].passed
    assert report["REV4'"].passed
    # probing unobservable fault literals still breaks strong neutrality
    extended = validate_rev(
        projected, obs_sequences=[(Not(Atom("f_c1")),), (Atom("f_c1"),)]
    )
    assert not extended["REV4"].passed


def test_projection_preserves_fault_beliefs(and_sys):
    projected = fault_projection(and_sys, AND_GATE)
    fvocab = projected.vocab

    def fault_beliefs(worlds):
        return frozenset(
            frozenset(g.gid for g in AND_GATE.gates if fvocab.truth(w, f"f_{g.gid}"))
            for w in worlds
        )

    assert fault_beliefs(bel(projected, ())) == diag(and_sys, AND_GATE, ())
    # one observed step: the projected observation is the fault formula
    # supported by the same reading, so beliefs about faults must agree
    bad = io_for(AND_GATE, and_sys, {"l1": True, "l2": True, "l3": False})
    bad_faults = frozenset(
        w
        for w in fvocab.worlds()
        if fault_consistent_with(
            AND_GATE,
            sorted(and_sys.universe),
            frozenset(g.gid for g in AND_GATE.gates if fvocab.truth(w, f"f_{g.gid}")),
            bad,
        )
    )
    projected_bad = next(
        o for o in projected.menu if fvocab.extension(o) == bad_faults
    )
    assert fault_beliefs(bel(projected, (projected_bad,))) == diag(
        and_sys, AND_GATE, (bad,)
    )


# ---------------------------------------------------------------------------
# the three-gate circuit


@pytest.fixture(scope="module")
def three():
    circuit, tests = parse_circuit(THREE_GATE_TEXT)
    return circuit, build_diag_system(circuit, tests)


def test_parse_three_gate_circuit(three):
    circuit, sys_ = three
    assert circuit.input_lines == ("l1", "l2", "l3")
    assert circuit.output_lines == ("l6",)
    assert circuit.observed == ("l1", "l2", "l3", "l6")
    assert sys_.horizon == 2


def test_three_gate_prop_diag(three):
    circuit, sys_ = three
    report = check_prop_diag(sys_, circuit)
    assert report.all_passed, report.to_text()


def test_three_gate_filtering_branch(three):
    circuit, sys_ = three
    # healthy behaviour: t1 (1,1,0): l4=1, l5=1, l6=0; t2 (0,1,1): l4=0, l5=1, l6=1
    good1 = io_for(circuit, sys_, {"l1": True, "l2": True, "l3": False, "l6": False})
    good2 = io_for(circuit, sys_, {"l1": False, "l2": True, "l3": True, "l6": True})
    assert diag(sys_, circuit, (good1,)) == frozenset({frozenset()})
    assert diag(sys_, circuit, (good1, good2)) == frozenset({frozenset()})


def test_three_gate_surprise_branch(three):
    circuit, sys_ = three
    bad1 = io_for(circuit, sys_, {"l1": True, "l2": True, "l3": False, "l6": True})
    after = diag(sys_, circuit, (bad1,))
    assert after  # some single-fault explanation exists
    assert all(len(f) == 1 for f in after)
    assert frozenset() not in after
    # each reported fault really is consistent with the surprising reading
    for fault in after:
        assert fault_consistent_with(circuit, sorted(sys_.universe), fault, bad1)


def test_three_gate_cardinality_growth(three):
    circuit, sys_ = three
    bad1 = io_for(circuit, sys_, {"l1": True, "l2": True, "l3": False, "l6": True})
    before = diag(sys_, circuit, ())
    after = diag(sys_, circuit, (bad1,))
    assert not (before & after)
    assert min(len(f) for f in after) > min(len(f) for f in before)


# ---------------------------------------------------------------------------
# construction at reading granularity, against a per-step reference

DIAG_SCENARIO = os.path.join(
    os.path.dirname(__file__), "..", "src", "beliefchange", "scenarios", "diag_three_gates.scn"
)


def _random_three_gate(seed):
    """The wiring of diag_three_gates.scn with random gate kinds and two
    random test vectors."""
    rng = random.Random(seed)
    kinds = [rng.choice(("AND", "OR", "XOR")) for _ in range(3)]
    lines = [f"gate c1 {kinds[0]} l1 l2 -> l4", f"gate c2 {kinds[1]} l2 l3 -> l5",
             f"gate c3 {kinds[2]} l4 l5 -> l6", "observe l1 l2 l3 l6"]
    for _ in range(2):
        lines.append("test " + " ".join(f"l{i}={rng.randint(0, 1)}" for i in (1, 2, 3)))
    return parse_circuit("\n".join(lines))


def _reference_diag_system(circuit, tests):
    """Runs, prior ranks and menu as built one step at a time: a fresh
    observation conjunction per step and a fault set per run, both read off
    the vocabulary."""
    vocab = circuit.vocab

    def faults(world):
        return frozenset(g.gid for g in circuit.gates if vocab.truth(world, f"f_{g.gid}"))

    def reading(world):
        return conj([
            Atom(f"h_{l}") if vocab.truth(world, f"h_{l}") else Not(Atom(f"h_{l}"))
            for l in circuit.observed
        ])

    by_fault = {}
    for world in consistent_states(circuit):
        by_fault.setdefault(faults(world), []).append(world)
    runs = []
    for fault, worlds in sorted(by_fault.items(), key=lambda kv: sorted(kv[0])):
        steps = [worlds] + [
            [s for s in worlds if all(vocab.truth(s, f"h_{l}") == v for l, v in t.items())]
            for t in tests
        ]
        for envs in itertools.product(*steps):
            runs.append(Run(envs, tuple(reading(envs[m]) for m in range(1, len(tests) + 1))))
    ranks = tuple(len(faults(r.envs[0])) for r in runs)
    menu = tuple(dict.fromkeys(o for r in runs for o in r.obs))
    return runs, ranks, menu


def _circuit_cases():
    scenario = load_scenario(DIAG_SCENARIO)
    cases = [pytest.param((scenario.circuit, scenario.tests), id="diag_three_gates")]
    for seed in (11, 12, 13):
        cases.append(pytest.param(_random_three_gate(seed), id=f"random-{seed}"))
    return cases


@pytest.mark.parametrize("case", _circuit_cases())
def test_build_diag_system_matches_the_per_step_reference(case):
    circuit, tests = case
    sys_ = build_diag_system(circuit, tests)
    runs, ranks, menu = _reference_diag_system(circuit, tests)
    assert list(sys_.runs) == runs
    assert sys_.prior.ranks == ranks
    assert dict(zip(sys_.runs, sys_.prior.ranks)) == dict(zip(runs, ranks))
    assert sys_.menu == menu
    # steps with equal readings share one formula object
    observed = [o for r in sys_.runs for o in r.obs]
    assert len({id(o) for o in observed}) == len(set(observed)) == len(menu)
    for world in circuit.vocab.worlds():
        assert circuit.fault_set(world) == frozenset(
            g.gid for g in circuit.gates if circuit.vocab.truth(world, f"f_{g.gid}")
        )
