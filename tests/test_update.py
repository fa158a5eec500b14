import itertools
import random

import pytest

from beliefchange.formulas import (
    TRUE,
    And,
    Atom,
    Not,
    Or,
    Vocabulary,
    world_formula,
)
from beliefchange.plausibility import Ordering, check_monotonicity, is_qualitative, root_of
from beliefchange.systems import Run, bel, validate_bcs
from beliefchange.update import (
    DistancePoset,
    LexPrior,
    LexRunOrder,
    UpdateError,
    UpdateStructure,
    borrowed_car,
    check_correctness_preservation,
    check_km,
    check_update_correspondence,
    hamming_structure,
    km_update,
    min_u,
    minimal_prefix_cells,
    random_structure,
    states,
    sufficient_information,
    system_from_update,
    update_operator,
    validate_upd,
)

PQ = Vocabulary(["p", "q"])
w = PQ.world_from_str
P_ = Atom("p")
Q_ = Atom("q")
HAMMING = hamming_structure(PQ)


def subsets(worlds):
    worlds = tuple(worlds)
    for mask in range(1 << len(worlds)):
        yield frozenset(x for i, x in enumerate(worlds) if mask >> i & 1)


def min_u_oracle(structure, origins, candidates):
    """Direct transcription of the defining set comprehension."""
    out = set()
    for cand in candidates:
        if any(
            all(not structure.closer(origin, other, cand) for other in candidates)
            for origin in origins
        ):
            out.add(cand)
    return frozenset(out)


# ---------------------------------------------------------------------------
# distance structures


def test_poset_zero_is_minimum():
    poset = DistancePoset.build(["a", "b"], [("a", "b")])
    assert poset.less(0, "a") and poset.less(0, "b") and poset.less("a", "b")
    assert not poset.less("b", "a")


def test_poset_rejects_cycles():
    with pytest.raises(UpdateError, match="distance order contains a cycle"):
        DistancePoset.build(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(UpdateError, match="distance order contains a cycle"):
        DistancePoset.build(["a"], [("a", 0)])


def test_poset_strict_is_the_closed_order():
    poset = DistancePoset.build(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
    assert poset.strict == {
        (0, "a"), (0, "b"), (0, "c"), (0, "d"), ("a", "b"), ("b", "c"), ("a", "c"),
    }


def test_structure_rejects_offdiagonal_zero():
    table = {(a, b): 0 for a, b in itertools.product(PQ.worlds(), repeat=2)}
    with pytest.raises(UpdateError):
        UpdateStructure(PQ, PQ.worlds(), table, DistancePoset.naturals(2))


def test_structure_requires_total_table():
    with pytest.raises(UpdateError):
        UpdateStructure(PQ, PQ.worlds(), {}, DistancePoset.naturals(2))


# ---------------------------------------------------------------------------
# pointwise minimal change


def test_min_u_contains_origins_within_candidates():
    for origins in subsets(PQ.worlds()):
        for candidates in subsets(PQ.worlds()):
            got = min_u(HAMMING, origins, candidates)
            assert origins & candidates <= got  # zero self-distance keeps them
            assert got <= candidates


def test_min_u_empty_origins():
    assert min_u(HAMMING, frozenset(), PQ.all_worlds()) == frozenset()


def test_min_u_empty_exactly_when_a_side_is():
    for structure in (HAMMING, random_structure(PQ, random.Random(42))):
        for origins, candidates in itertools.product(subsets(PQ.worlds()), repeat=2):
            empty = not min_u(structure, origins, candidates)
            assert empty == (not origins or not candidates)


def test_min_u_hamming_example():
    got = min_u(HAMMING, frozenset({w("11")}), frozenset({w("10"), w("00")}))
    assert got == frozenset({w("10")})


def test_min_u_matches_oracle_exhaustively():
    structures = [HAMMING] + [
        random_structure(PQ, random.Random(seed)) for seed in range(5)
    ]
    for structure in structures:
        for origins, candidates in itertools.product(subsets(PQ.worlds()), repeat=2):
            assert min_u(structure, origins, candidates) == min_u_oracle(
                structure, origins, candidates
            )


def test_min_u_rejects_foreign_worlds():
    three = UpdateStructure(
        PQ,
        [w("00"), w("01"), w("10")],
        {
            (a, b): bin(a ^ b).count("1")
            for a, b in itertools.product([w("00"), w("01"), w("10")], repeat=2)
        },
        DistancePoset.naturals(2),
    )
    with pytest.raises(UpdateError):
        min_u(three, {w("11")}, {w("00")})


def test_km_update_believed_observation_is_noop():
    for mu in subsets(PQ.worlds()):
        for phi in subsets(PQ.worlds()):
            if mu <= phi:
                assert km_update(HAMMING, mu, phi) == mu


def test_km_update_decomposes_over_unions():
    for mu1, mu2, phi in itertools.product(list(subsets(PQ.worlds()))[:12], repeat=3):
        assert km_update(HAMMING, mu1 | mu2, phi) == km_update(
            HAMMING, mu1, phi
        ) | km_update(HAMMING, mu2, phi)


# ---------------------------------------------------------------------------
# postulates


def test_km_postulates_hamming():
    report = check_km(update_operator(HAMMING), HAMMING.worlds, PQ)
    assert report.all_passed, report.to_text()


def test_km_postulates_random_structures():
    for seed in range(10):
        structure = random_structure(PQ, random.Random(seed))
        report = check_km(update_operator(structure), structure.worlds, PQ)
        assert report.all_passed, f"seed {seed}: {report.to_text()}"


def test_km_observation_echo_fails_u2():
    op = lambda mu, phi: phi
    report = check_km(op, HAMMING.worlds, PQ)
    assert not report["U2"].passed


def test_km_global_minimisation_fails_u8():
    """Minimising distance jointly over all believed worlds (instead of
    pointwise) must break the union-decomposition postulate somewhere."""

    def global_min(mu, phi):
        if not mu or not phi:
            return frozenset()
        best = min(HAMMING.d(a, b) for a in mu for b in phi)
        return frozenset(b for b in phi if any(HAMMING.d(a, b) == best for a in mu))

    report = check_km(global_min, HAMMING.worlds, PQ)
    assert not report["U8"].passed


# ---------------------------------------------------------------------------
# run systems


MENU = (TRUE, P_, Not(Q_), And(P_, Q_))


@pytest.fixture(scope="module")
def updsys():
    return system_from_update(HAMMING, 2, MENU)


def test_system_size_small_example():
    vocab = Vocabulary(["p"])
    sys_ = system_from_update(hamming_structure(vocab), 1, [TRUE])
    assert len(sys_.runs) == 4  # two initial states times two successors


def test_system_rejects_unsatisfiable_menu():
    from beliefchange.formulas import FALSE

    with pytest.raises(UpdateError):
        system_from_update(HAMMING, 1, [FALSE])


def test_initial_states_are_all_worlds(updsys):
    assert states(updsys, ()) == PQ.all_worlds()
    assert bel(updsys, ()) == PQ.all_worlds()


def test_lex_prior_first_divergence_wins():
    order = LexRunOrder(HAMMING)
    stay = (w("11"), w("11"), w("11"))
    drift_late = (w("11"), w("11"), w("10"))
    drift_early = (w("11"), w("10"), w("10"))
    assert order.prec(stay, drift_late)
    assert order.prec(drift_late, drift_early)
    big_late = (w("11"), w("11"), w("00"))
    # the early small step loses to the later big step: first difference rules
    assert order.prec(big_late, drift_early)
    assert not order.prec(drift_early, big_late)
    # different initial states never compare
    assert not order.prec((w("00"), w("00")), (w("11"), w("11")))


def test_lex_prior_runs_sharing_a_history_are_equal():
    # the prior reads a run only through its environment sequence, so runs
    # that differ only in what they observe are order-equivalent
    sys_ = system_from_update(HAMMING, 2, (TRUE, P_, Not(Q_)))
    runs = sys_.runs
    assert runs[0].envs == runs[1].envs and runs[0].obs != runs[1].obs
    assert sys_.prior.compare([runs[0]], [runs[1]]) is Ordering.EQUAL


def test_lex_prior_cells_match_hand_table():
    vocab = Vocabulary(["p"])
    structure = hamming_structure(vocab)
    order = LexRunOrder(structure)
    cells = list(itertools.product(structure.worlds, repeat=3))
    for a, b in itertools.product(cells, repeat=2):
        expected = False
        if a != b and a[0] == b[0]:
            i = next(k for k in range(1, 3) if a[k] != b[k])
            if a[:i] == b[:i]:
                expected = structure.d(a[i - 1], a[i]) < structure.d(b[i - 1], b[i])
        assert order.prec(a, b) == expected, (a, b)


@pytest.mark.parametrize("seed", range(10))
def test_lex_run_order_is_a_strict_partial_order(seed):
    # BCS5 takes the prior axioms by construction on a dominance lift of a
    # strict partial order
    structure = random_structure(PQ, random.Random(seed))
    prec = LexRunOrder(structure).prec
    cells = list(itertools.product(structure.worlds, repeat=3))
    beats = {a: {b for b in cells if prec(a, b)} for a in cells}
    for a in cells:
        assert a not in beats[a]
        for b in beats[a]:
            assert beats[b] <= beats[a], (a, b)


def prec_rows(prior):
    """The rows of a lexicographic prior's cells, read off
    ``LexRunOrder.prec`` pair by pair."""
    cells, prec = prior.base.carrier, LexRunOrder(prior.structure).prec
    return [sum(1 << j for j, d in enumerate(cells) if prec(c, d)) for c in cells]


def _lex_prior_over_all_cells(structure, horizon):
    cells = itertools.product(structure.worlds, repeat=horizon + 1)
    return LexPrior([Run(c, (TRUE,) * horizon) for c in cells], structure)


PQR = Vocabulary(["p", "q", "r"])
ROW_CASES = [
    (vocab, kind, horizon)
    for vocab in (Vocabulary(["p"]), PQ)
    for kind in ("hamming", 0, 1, 2)
    for horizon in (1, 2, 3)
] + [(PQR, kind, 2) for kind in ("hamming", 0, 1)]


@pytest.mark.parametrize("vocab, kind, horizon", ROW_CASES)
def test_block_rows_equal_the_prec_rows(vocab, kind, horizon):
    if kind == "hamming":
        structure = hamming_structure(vocab)
    else:
        structure = random_structure(vocab, random.Random(kind))
    prior = _lex_prior_over_all_cells(structure, horizon)
    assert len(prior.base.carrier) == len(structure.worlds) ** (horizon + 1)
    assert list(prior.base.rows) == prec_rows(prior)


@pytest.mark.parametrize("seed", range(4))
def test_block_rows_over_a_scrambled_subset_of_runs(seed):
    rng = random.Random(seed)
    structure = random_structure(PQ, rng) if seed else HAMMING
    runs = list(system_from_update(structure, 2, (TRUE, P_, Not(Q_))).runs)
    runs = rng.sample(runs, len(runs) // 3)
    prior = LexPrior(runs, structure)
    assert prior.base.carrier == tuple(dict.fromkeys(r.envs for r in runs))
    assert list(prior.base.rows) == prec_rows(prior)


def test_lex_prior_rejects_a_world_outside_its_structure():
    narrow = hamming_structure(PQ, [0, 1, 2])
    runs = [Run((0, 1), (TRUE,)), Run((0, 3), (TRUE,))]
    with pytest.raises(UpdateError, match="world 11 outside the structure"):
        LexPrior(runs, narrow)


P1 = Vocabulary(["p"])


@pytest.mark.parametrize(
    "structure, horizon",
    [(hamming_structure(P1), h) for h in (1, 2)]
    + [(random_structure(P1, random.Random(seed)), h) for seed in range(2) for h in (1, 2)]
    + [(random_structure(PQ, random.Random(seed), worlds=[0, 1, 2]), 1) for seed in range(2)],
    ids=["hamming-h1", "hamming-h2", "random0-h1", "random0-h2", "random1-h1", "random1-h2",
         "three-worlds0-h1", "three-worlds1-h1"],
)
def test_lex_prior_roots_pass_the_exhaustive_axiom_sweeps(structure, horizon):
    root = root_of(system_from_update(structure, horizon, [TRUE]).prior)[0]
    assert is_qualitative(root) and check_monotonicity(root)


def test_states_after_observation(updsys):
    assert states(updsys, (Not(Q_),)) == min_u(
        HAMMING, PQ.all_worlds(), PQ.extension(Not(Q_))
    )


def test_states_equals_bel_worlds(updsys):
    sequences = [()]
    sequences += [(o,) for o in MENU]
    sequences += list(itertools.product(MENU, repeat=2))
    for seq in sequences:
        assert states(updsys, seq) == bel(updsys, seq), [str(f) for f in seq]


def test_states_unattainable_sequence(updsys):
    from beliefchange.formulas import FALSE

    assert states(updsys, (FALSE,), HAMMING) == frozenset()


def test_update_correspondence(updsys):
    report = check_update_correspondence(updsys)
    assert report.all_passed, report.to_text()


def test_update_correspondence_random_structures():
    for seed in (0, 3):
        structure = random_structure(PQ, random.Random(seed))
        sys_ = system_from_update(structure, 2, MENU)
        report = check_update_correspondence(sys_)
        assert report.all_passed, f"seed {seed}: {report.to_text()}"


def test_validate_upd(updsys):
    report = validate_upd(updsys)
    assert report.all_passed, report.to_text()


def test_validate_bcs_on_update_system(updsys):
    assert validate_bcs(updsys).all_passed


def test_belief_state_functionality(updsys):
    """Equal belief states must update identically, even when reached by
    different observation histories."""
    by_state = {}
    sequences = [(o,) for o in MENU] + list(itertools.product(MENU, repeat=2))
    for seq in sequences:
        by_state.setdefault(states(updsys, seq), []).append(seq)
    assert any(len(v) > 1 for v in by_state.values())
    for same_state in by_state.values():
        if len(same_state) < 2 or len(same_state[0]) >= updsys.horizon:
            continue
        first, rest = same_state[0], same_state[1:]
        for other in rest:
            if len(other) >= updsys.horizon:
                continue
            for o in MENU:
                assert states(updsys, first + (o,)) == states(updsys, other + (o,))


# ---------------------------------------------------------------------------
# sufficient information


def test_complete_observation_is_sufficient():
    for origin in PQ.worlds():
        for succ in PQ.worlds():
            assert sufficient_information(HAMMING, origin, succ, world_formula(succ, PQ))


def test_sufficient_information_monotone():
    # anything implying a sufficient observation is sufficient too
    phi = Or(Not(Q_), And(P_, Q_))
    psi = Not(Q_)  # psi implies phi
    for origin in PQ.worlds():
        for succ in PQ.extension(psi):
            if sufficient_information(HAMMING, origin, succ, phi):
                assert sufficient_information(HAMMING, origin, succ, psi)


def test_insufficient_observation_example():
    assert not sufficient_information(HAMMING, w("11"), w("00"), Not(Q_))


def test_sufficient_information_precondition():
    with pytest.raises(UpdateError):
        sufficient_information(HAMMING, w("11"), w("11"), Not(Q_))


def test_correctness_preservation(updsys):
    report = check_correctness_preservation(updsys)
    assert report.all_passed, report.to_text()


def test_correctness_preservation_three_worlds():
    worlds = [w("00"), w("01"), w("11")]
    table = {
        (a, b): bin(a ^ b).count("1") for a, b in itertools.product(worlds, repeat=2)
    }
    structure = UpdateStructure(PQ, worlds, table, DistancePoset.naturals(2))
    menu = [TRUE] + [world_formula(x, PQ) for x in worlds] + [Not(Q_)]
    sys_ = system_from_update(structure, 2, menu)
    report = check_correctness_preservation(sys_)
    assert report.all_passed, report.to_text()


# ---------------------------------------------------------------------------
# the parked-car story


@pytest.fixture(scope="module")
def car():
    return borrowed_car()


def test_borrowed_car_null_update_steps(car):
    _, trace = car
    steps = trace["steps"]
    assert steps[1]["states"] == steps[2]["states"]  # observing nothing changes nothing
    assert steps[2]["states"] == steps[3]["states"]  # seeing the car parked, ditto


def test_borrowed_car_final_explanation(car):
    sys_, trace = car
    vocab = sys_.vocab
    parked_full = vocab.world_of({"car_parked_outside": True, "fuel_tank_full": True})
    parked_empty = vocab.world_of({"car_parked_outside": True, "fuel_tank_full": False})
    assert trace["steps"][1]["states"] == frozenset({parked_full})
    assert trace["steps"][4]["states"] == frozenset({parked_empty})
    for cell in trace["final_cells"]:
        assert cell[1] == cell[2] == cell[3] == parked_full
        assert cell[4] == parked_empty


def test_borrowed_car_observation_menu(car):
    sys_, trace = car
    assert len(trace["observations"]) == sys_.horizon == 4


def test_borrowed_car_outside_theorem_premise(car):
    """In a history where the car was actually taken for a ride, beliefs at
    time 3 are already incorrect, so the correctness-preservation theorem
    says nothing about the final step (its premise fails)."""
    sys_, trace = car
    vocab = sys_.vocab
    obs = trace["observations"]
    w = vocab.world_from_str
    taken = next(
        (r for r in sys_.runs if r.obs == obs and r.envs[1:] == (w("11"), w("00"), w("10"), w("10"))),
        None,
    )
    assert taken is not None, "no run where the car left and came back empty"
    believed_at_3 = states(sys_, taken.local_state(3))
    assert taken.envs[3] not in believed_at_3  # beliefs incorrect before the last step
