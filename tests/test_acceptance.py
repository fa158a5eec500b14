"""Acceptance suite: one test per criterion, each printing a PASS line.

Every criterion is exercised at its stated scale and, where one is given,
under its stated wall-clock bound.  The checks are exhaustive at desk
scale; nothing here is sampled unless the criterion itself says so.
"""
import itertools
import random
import time

from beliefchange.diagnosis import build_diag_system, check_prop_diag, diag, parse_circuit
from beliefchange.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Not,
    Vocabulary,
    parse_formula,
    world_formula,
)
from beliefchange.plausibility import (
    MappedMeasure,
    PlausibilityStructure,
    RankedMeasure,
    check_klm_closure,
    extension_representatives,
    from_preference,
    is_qualitative,
)
from beliefchange.revision import (
    check_agm,
    check_agm_epistemic,
    epistemic_bel,
    longest_consistent_suffix,
    operator_from_ranking,
    revision_from_system,
    system_from_ranking,
    system_from_revision,
    validate_rev,
)
from beliefchange.scenario import build_system, load_scenario_text
from beliefchange.synthesis import belief_correspondence, statify, verify_statification
from beliefchange.systems import System, bel, check_prior_local_rule, validate_bcs
from beliefchange.update import (
    DistancePoset,
    LexRunOrder,
    UpdateStructure,
    borrowed_car,
    check_correctness_preservation,
    check_km,
    check_update_correspondence,
    hamming_structure,
    min_u,
    random_structure,
    states,
    system_from_update,
    update_operator,
    validate_upd,
)

PQ = Vocabulary(["p", "q"])
PQR = Vocabulary(["p", "q", "r"])
P_ = Atom("p")
Q_ = Atom("q")
REPS = [f for f, _ in extension_representatives(PQ)]


def _report(criterion: str, started: float, bound: float = None):
    elapsed = time.time() - started
    if bound is not None and elapsed >= bound:
        print(f"ACCEPTANCE {criterion} FAIL (runtime {elapsed:.1f}s >= {bound:.0f}s)")
        raise AssertionError(f"{criterion} exceeded its {bound}s budget: {elapsed:.1f}s")
    budget = "" if bound is None else f" ({elapsed:.1f}s < {bound:.0f}s)"
    print(f"ACCEPTANCE {criterion} PASS{budget}")


def all_rankings():
    for vector in itertools.product(range(4), repeat=4):
        table = dict(zip(PQ.worlds(), vector))
        best = min(vector)
        belief = frozenset(w for w in PQ.worlds() if table[w] == best)
        yield table, belief


# ---------------------------------------------------------------------------


def test_criterion_1_agm_soundness_sweep():
    """All 256 rankings over two propositions satisfy the eight revision
    postulates semantically, over all 16x16 extension pairs."""
    started = time.time()
    count = 0
    for table, belief in all_rankings():
        report = check_agm(operator_from_ranking(table, PQ), belief)
        assert report.all_passed, f"ranking {table}: {report.to_text()}"
        count += 1
    assert count == 256
    _report("criterion-1 agm-soundness", started, bound=10.0)


def test_criterion_2_km_soundness_sweep():
    """Bit-flip distances plus 200 random valid distance posets over four
    worlds satisfy the eight update postulates over all extension pairs."""
    started = time.time()
    structures = [hamming_structure(PQ)]
    structures += [random_structure(PQ, random.Random(seed)) for seed in range(200)]
    for i, structure in enumerate(structures):
        report = check_km(update_operator(structure), structure.worlds, PQ)
        assert report.all_passed, f"structure {i}: {report.to_text()}"
    _report("criterion-2 km-soundness", started, bound=60.0)


def test_criterion_3_revision_round_trip():
    """Every ranking's operator survives the trip through a run system and
    back, exactly, on every menu formula."""
    started = time.time()
    mismatches = 0
    for i, (table, belief) in enumerate(all_rankings()):
        op = operator_from_ranking(table, PQ)
        sys_ = system_from_revision(op, belief, REPS, horizon=1)
        if i % 16 == 0:  # full validation on a sample; construction is uniform
            assert validate_rev(sys_, max_len=1).all_passed
        assert bel(sys_, ()) == belief
        recovered = revision_from_system(sys_, validate=False)
        for f in REPS:
            ext = PQ.extension(f)
            if recovered(belief, ext) != op(belief, ext):
                mismatches += 1
    assert mismatches == 0
    _report("criterion-3 revision-round-trip", started)


def _criterion4_cases():
    menu6 = [TRUE, P_, Q_, Not(Q_), And(P_, Q_), parse_formula("p | !q", PQ)]
    yield hamming_structure(PQ), 3, menu6
    yield random_structure(PQ, random.Random(1)), 2, menu6[:4]
    three = [w for w in PQ.worlds() if w != 1]
    table = {(a, b): bin(a ^ b).count("1") for a in three for b in three}
    yield UpdateStructure(PQ, three, table, DistancePoset.naturals(2)), 2, [
        TRUE,
        P_,
        Not(Q_),
    ]
    single = Vocabulary(["p"])
    yield hamming_structure(single), 3, [TRUE, Atom("p"), Not(Atom("p"))]


def test_criterion_4_update_correspondence():
    """States after each observation equal the pointwise minimal change of
    the previous states, exhaustively over attainable sequences and menu
    formulas, for structures up to four worlds and horizon three; and the
    states are what conditioning the prior believes, on every sequence up
    to the full horizon."""
    started = time.time()
    for structure, horizon, menu in _criterion4_cases():
        sys_ = system_from_update(structure, horizon, menu)
        sequences = [()]
        for k in range(1, horizon):
            sequences += list(itertools.product(sys_.menu, repeat=k))
        report = check_update_correspondence(sys_, structure, sequences)
        assert report.all_passed, report.to_text()
        for seq in sequences + list(itertools.product(sys_.menu, repeat=horizon)):
            assert bel(sys_, seq) == states(sys_, seq, structure), seq
        # the largest part is UPD4's 279,936 instances with one observation
        # over the six-formula menu: every instance is checked
        assert validate_upd(sys_, budget=279_936).all_passed
    _report("criterion-4 update-correspondence", started, bound=120.0)


def _rank_overrides(sys_, world_rank):
    """Per-state measures rebuilt from the world ranks, independently of the
    system's prior, for every local state with at most 8 points."""
    states = dict.fromkeys(r.local_state(m) for r in sys_.runs for m in range(sys_.horizon + 1))
    overrides = {}
    for s_a in states:
        pts = sys_.points_with_local_state(s_a)
        if len(pts) <= 8:
            overrides[s_a] = RankedMeasure(pts, [world_rank[r.envs[0]] for r, t in pts])
    return overrides


def _with_overrides(sys_, overrides):
    return System(
        sys_.vocab,
        sys_.runs,
        sys_.prior,
        sys_.horizon,
        universe=sys_.universe,
        menu=sys_.menu,
        point_measures=overrides,
    )


def _reversed_pair_override(sys_, s_a, cells, pairs, key):
    """``sys_`` with the measure at ``s_a`` rebuilt as the dominance lift of
    the strict ``pairs`` on cells, read through ``key``, with the first
    pair reversed."""
    (x, y), *rest = pairs
    order = from_preference(cells, [(y, x)] + rest)
    pts = sys_.points_with_local_state(s_a)
    image = [order.index[key(p)] for p in pts]
    return _with_overrides(sys_, {s_a: MappedMeasure(pts, order, image)})


def test_criterion_5_conditioning_local_rule():
    """The step-to-step conditioning rule holds exhaustively on every
    constructed system small enough for full subset enumeration, with a
    per-state measure supplied directly on each: the update and preference
    systems get their own conditioned prior back at <true>, the ranked
    systems measures rebuilt from the world ranks.  Reversing one pair of
    an order, or flipping one state's ranks, breaks the rule."""
    started = time.time()
    single = Vocabulary(["p"])
    complete = [world_formula(w, single) for w in single.worlds()]
    scenario = load_scenario_text(
        "vocab p q\nhorizon 1\nprior preference\n  11 < 10\n  11 < 01\nmenu true\n"
    )
    structure = hamming_structure(single)
    update_sys = system_from_update(structure, 1, complete)
    preference_sys = build_system(scenario)
    systems = [
        _with_overrides(sys_, {(TRUE,): sys_.plaus_at((TRUE,))})
        for sys_ in (update_sys, preference_sys)
    ]
    ranked = [
        ({0: 2, 1: 1, 2: 1, 3: 0}, [TRUE, P_, Q_, Not(Q_)]),
        ({0: 0, 1: 0, 2: 1, 3: 2}, [TRUE, P_]),
    ]
    for world_rank, menu in ranked:
        sys_ = system_from_ranking(PQ, world_rank, menu, 2)
        systems.append(_with_overrides(sys_, _rank_overrides(sys_, world_rank)))
    for sys_ in systems:
        report = check_prior_local_rule(sys_)
        assert report.all_passed, report.to_text()

    cells = tuple(dict.fromkeys(r.envs for r in update_sys.runs))
    lex = LexRunOrder(structure)
    lex_pairs = [(a, b) for a in cells for b in cells if lex.prec(a, b)]
    flipped = _reversed_pair_override(update_sys, (TRUE,), cells, lex_pairs, lambda p: p[0].envs)
    report = check_prior_local_rule(flipped)
    assert report["LOCAL-RULE"].witness == "local state <true>: subset masks (0x1, 0x2) disagree"
    flipped = _reversed_pair_override(
        preference_sys, (TRUE,), tuple(PQ.worlds()), scenario.preference_pairs,
        lambda p: p[0].envs[0],
    )
    report = check_prior_local_rule(flipped)
    assert report["LOCAL-RULE"].witness == "local state <true>: subset masks (0x2, 0x4) disagree"

    world_rank, menu = ranked[0]
    sys_ = system_from_ranking(PQ, world_rank, menu, 2)
    overrides = _rank_overrides(sys_, world_rank)
    pts = overrides[(P_,)].carrier
    overrides[(P_,)] = RankedMeasure(pts, [2 - world_rank[r.envs[0]] for r, t in pts])
    report = check_prior_local_rule(_with_overrides(sys_, overrides))
    assert report["LOCAL-RULE"].witness == "local state <p>: subset masks (0x1, 0x8) disagree"
    _report("criterion-5 conditioning-local-rule", started)


def test_criterion_6_statification():
    """Statified update systems are belief change systems with static
    propositions; positive plausibility and observation neutrality carry
    over; rankedness genuinely fails; beliefs correspond pointwise."""
    started = time.time()
    single = Vocabulary(["p"])
    cases = [
        system_from_update(hamming_structure(PQ), 2, [TRUE, P_, Not(Q_)]),
        system_from_update(random_structure(PQ, random.Random(7)), 2, [TRUE, P_]),
        system_from_update(hamming_structure(single), 2, [TRUE, Atom("p")]),
    ]
    partial_witnessed = False
    for sys_ in cases:
        st = statify(sys_)
        report = verify_statification(st, budget=20_000)
        by_name = {r.name: r for r in report}
        assert by_name["BCS"].passed, report.to_text()
        assert by_name["REV1"].passed
        assert by_name["UPD3->REV3"].passed
        assert by_name["UPD4->REV4'"].passed
        assert by_name["PRIOR-ISO"].passed
        if not by_name["REV2"].passed:
            assert by_name["REV2"].witness
            partial_witnessed = True
        reps = [f for f, _ in extension_representatives(sys_.vocab)]
        for run in sys_.runs:
            for m in range(sys_.horizon + 1):
                for f in reps:
                    assert belief_correspondence(st, run, m, f)
    assert partial_witnessed, "no genuinely partial prior exercised"
    _report("criterion-6 statification", started)


def test_criterion_7_borrowed_car():
    """The parked-car story: no belief change while nothing surprising is
    seen, then the fuel loss is pinned on the last possible interval."""
    started = time.time()
    sys_, trace = borrowed_car()
    vocab = sys_.vocab
    parked_full = vocab.world_of({"car_parked_outside": True, "fuel_tank_full": True})
    parked_empty = vocab.world_of({"car_parked_outside": True, "fuel_tank_full": False})
    steps = trace["steps"]
    mu1 = steps[1]["states"]
    assert mu1 == frozenset({parked_full})
    assert steps[2]["states"] == mu1  # observing a tautology changes nothing
    assert steps[3]["states"] == mu1  # seeing the car parked changes nothing
    assert steps[4]["states"] == frozenset({parked_empty})
    assert trace["final_cells"], "no most-plausible histories computed"
    for cell in trace["final_cells"]:
        assert cell[1] == cell[2] == cell[3] == parked_full
        assert cell[4] == parked_empty
    _report("criterion-7 borrowed-car", started)


THREE_GATE = """
gate c1 AND l1 l2 -> l4
gate c2 OR l2 l3 -> l5
gate c3 XOR l4 l5 -> l6
observe l1 l2 l3 l6
test l1=1 l2=1 l3=0
test l1=0 l2=1 l3=1
"""


def test_criterion_8_diagnosis():
    """Both belief-dynamics branches and both corollaries hold over every
    run prefix of a three-gate circuit under two test vectors."""
    started = time.time()
    circuit, tests = parse_circuit(THREE_GATE)
    assert len(circuit.gates) == 3 and len(tests) == 2
    sys_ = build_diag_system(circuit, tests)
    assert validate_bcs(sys_).all_passed
    report = check_prop_diag(sys_, circuit)
    assert report.all_passed, report.to_text()
    # a surprise must actually occur somewhere in the run set
    surprising = False
    for run in sys_.runs:
        for m in range(sys_.horizon):
            before = diag(sys_, circuit, run.local_state(m))
            after = diag(sys_, circuit, run.local_state(m + 1))
            if before and after and not (before & after):
                surprising = True
    assert surprising, "test vectors never produced a surprising reading"
    _report("criterion-8 diagnosis", started, bound=30.0)


def test_criterion_9_correctness_preservation():
    """Correct beliefs stay correct after sufficiently informative
    observations, over all runs of horizon-2 systems with up to three
    worlds."""
    started = time.time()
    single = Vocabulary(["p"])
    cases = [
        system_from_update(
            hamming_structure(single),
            2,
            [TRUE, Atom("p"), Not(Atom("p"))],
        )
    ]
    three = [w for w in PQ.worlds() if w != 1]
    table = {(a, b): bin(a ^ b).count("1") for a in three for b in three}
    structure = UpdateStructure(PQ, three, table, DistancePoset.naturals(2))
    menu = [TRUE] + [world_formula(w, PQ) for w in three] + [Not(Q_)]
    cases.append(system_from_update(structure, 2, menu))
    for sys_ in cases:
        report = check_correctness_preservation(sys_)
        assert report.all_passed, report.to_text()
    _report("criterion-9 correctness-preservation", started)


def test_criterion_10_epistemic_postulates():
    """The primed postulates hold for append-revision with suffix-reading
    beliefs on every ranked test system, and an inconsistent pair of
    observations revises from its consistent suffix."""
    started = time.time()
    menus = [TRUE, P_, Q_, Not(P_), Not(Q_), And(P_, Q_)]
    rankings = [
        {0: 2, 1: 1, 2: 1, 3: 0},
        {0: 0, 1: 1, 2: 2, 3: 3},
        {0: 0, 1: 0, 2: 0, 3: 0},
        {0: 3, 1: 0, 2: 2, 3: 1},
    ]
    probes = menus + [FALSE]
    for table in rankings:
        sys_ = system_from_ranking(PQ, table, menus, 3)
        sequences = [()]
        for k in (1, 2, 3):
            sequences += list(itertools.product([P_, Not(P_), Q_], repeat=k))
        report = check_agm_epistemic(sys_, sequences=sequences, probes=probes)
        assert report.all_passed, f"ranking {table}: {report.to_text()}"
        # the inconsistent sequence <p, !p> revises from the suffix <!p>
        assert longest_consistent_suffix(sys_, (P_, Not(P_))) == (Not(P_),)
        assert epistemic_bel(sys_, (P_, Not(P_))) == bel(sys_, (Not(P_),))
    _report("criterion-10 epistemic-postulates", started)


def test_criterion_11_klm_closure():
    """No closure-rule violations on any qualitative structure at the
    per-extension-representative budget (which covers formula depth two)."""
    started = time.time()
    carrier = ("e0", "e1", "e2", "e3")
    labeling = dict(zip(carrier, PQ.worlds()))
    structures = []
    for vector in [(0, 1, 1, 2), (0, 0, 0, 0), (3, 2, 1, 0), (0, 2, 1, 2)]:
        structures.append(
            PlausibilityStructure(
                RankedMeasure(carrier, vector), labeling, PQ
            )
        )
    for pairs in [
        set(),
        {("e0", "e1")},
        {("e0", "e1"), ("e1", "e2")},
        {("e0", "e2"), ("e1", "e2")},
        {("e0", "e1"), ("e2", "e3")},
    ]:
        structures.append(
            PlausibilityStructure(from_preference(carrier, pairs), labeling, PQ)
        )
    for structure in structures:
        assert is_qualitative(structure.measure)
        report = check_klm_closure(structure)
        assert report.all_passed, report.to_text()
    _report("criterion-11 klm-closure", started)


def test_criterion_12_three_proposition_sweeps():
    """The postulate sweeps of criteria 1 and 2 over three propositions (8
    worlds, 256 extensions): U1-U8 on bit-flip distances, with 256^3
    triples for U5, U6 and U8, and R1-R8 for 64 seeded random rankings,
    over all 256x256 extension pairs."""
    started = time.time()
    structure = hamming_structure(PQR)
    report = check_km(update_operator(structure), structure.worlds, PQR)
    assert report.all_passed, report.to_text()
    for seed in range(64):
        rng = random.Random(seed)
        table = {w: rng.randrange(4) for w in PQR.worlds()}
        best = min(table.values())
        belief = frozenset(w for w in PQR.worlds() if table[w] == best)
        report = check_agm(operator_from_ranking(table, PQR), belief)
        assert report.all_passed, f"ranking {table}: {report.to_text()}"
    _report("criterion-12 three-proposition-sweeps", started, bound=60.0)
