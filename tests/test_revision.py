import itertools
import os

import pytest

from beliefchange.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Not,
    Vocabulary,
    formula_of_extension,
    parse_formula,
)
from beliefchange.plausibility import (
    INF,
    MappedMeasure,
    Mask,
    extension_representatives,
    from_preference,
    rank_of,
)
from beliefchange.revision import (
    RevisionError,
    RevisionOperator,
    check_agm,
    check_agm_epistemic,
    epistemic_bel,
    longest_consistent_suffix,
    min_rank_worlds,
    operator_from_ranking,
    ranking_from_operator,
    revise_at_state,
    revision_from_system,
    static_system,
    system_from_ranking,
    system_from_revision,
    validate_rev,
)
from beliefchange.scenario import build_system, load_scenario
from beliefchange.systems import bel

PQ = Vocabulary(["p", "q"])
w = PQ.world_from_str
P_ = Atom("p")
Q_ = Atom("q")

RANKS = {w("11"): 0, w("10"): 1, w("01"): 1, w("00"): 2}
K = frozenset({w("11")})
REPS = [f for f, _ in extension_representatives(PQ)]
# every extension observable (full observability), plus the natural literal
# spellings so that plain-formula observation sequences are attainable
MENU = REPS + [P_, Q_, Not(P_), Not(Q_), And(P_, Q_)]


def all_extensions(vocab=PQ):
    for mask in range(1 << vocab.world_count):
        yield frozenset(x for x in vocab.worlds() if mask >> x & 1)


# ---------------------------------------------------------------------------
# revising straight from a ranking

REVISE = operator_from_ranking(RANKS, PQ)


def test_revise_by_tautology_keeps_beliefs():
    assert REVISE(K, PQ.all_worlds()) == K


def test_revise_picks_minimal_worlds_of_input():
    # brute-force oracle: minimum rank among the input's worlds
    observed = frozenset({w("10"), w("00")})
    best = min(RANKS[x] for x in observed)
    assert REVISE(K, observed) == frozenset(
        x for x in observed if RANKS[x] == best
    )
    assert REVISE(K, observed) == frozenset({w("10")})


def test_revise_by_contradiction_collapses():
    assert REVISE(K, frozenset()) == frozenset()


def test_revise_rejects_incoherent_belief():
    with pytest.raises(RevisionError):
        REVISE(frozenset({w("00")}), PQ.all_worlds())


# ---------------------------------------------------------------------------
# the postulate checker


def test_agm_passes_for_rankings():
    for ranks in itertools.islice(itertools.product(range(4), repeat=4), 0, 256, 17):
        table = dict(zip(PQ.worlds(), ranks))
        belief = frozenset(x for x in PQ.worlds() if table[x] == min(ranks))
        report = check_agm(operator_from_ranking(table, PQ), belief)
        assert report.all_passed, report.to_text()


def test_agm_constant_empty_operator_fails_r5():
    op = RevisionOperator(lambda k, e: frozenset(), PQ, "external")
    report = check_agm(op, K)
    assert not report["R5"].passed


def test_agm_input_ignoring_operator_fails_r2():
    op = RevisionOperator(lambda k, e: K, PQ, "external")
    report = check_agm(op, K)
    assert not report["R2"].passed


def test_agm_drastic_operator_fails_r4():
    # always jump to the whole input, forgetting prior beliefs
    op = RevisionOperator(lambda k, e: e, PQ, "external")
    report = check_agm(op, K)
    assert not report["R4"].passed
    assert report["R2"].passed


# ---------------------------------------------------------------------------
# operator -> system


def test_ranking_extraction_reproduces_layers():
    op = operator_from_ranking(RANKS, PQ)
    extracted = ranking_from_operator(op, K)
    # ranks may be renumbered densely but must order worlds identically
    for a, b in itertools.product(PQ.worlds(), repeat=2):
        assert (RANKS[a] < RANKS[b]) == (extracted[a] < extracted[b])


def test_system_from_revision_matches_operator():
    op = operator_from_ranking(RANKS, PQ)
    sys_ = system_from_revision(op, K, MENU, horizon=1)
    assert bel(sys_, ()) == K
    for f in MENU:
        assert bel(sys_, (f,)) == op(K, PQ.extension(f)), str(f)


def test_system_from_revision_rejects_inconsistent_belief():
    op = operator_from_ranking(RANKS, PQ)
    with pytest.raises(RevisionError):
        system_from_revision(op, frozenset(), MENU, horizon=1)


def test_observing_contradiction_collapses_beliefs():
    sys_ = system_from_ranking(PQ, RANKS, MENU, horizon=1)
    assert bel(sys_, (FALSE,)) == frozenset()


# ---------------------------------------------------------------------------
# system -> operator and the round trip


@pytest.fixture(scope="module")
def ranked_sys():
    return system_from_ranking(PQ, RANKS, MENU, horizon=2)


def test_validate_rev_passes(ranked_sys):
    # 20 probes after each of the 400 two-observation menu sequences: the
    # largest part of REV4 holds 160,000 probe pairs
    report = validate_rev(ranked_sys, budget=160_000)
    assert report.all_passed, report.to_text()


def test_revision_from_system_round_trip():
    # validated at the default budget, which this smaller menu fits
    op = operator_from_ranking(RANKS, PQ)
    recovered = revision_from_system(system_from_ranking(PQ, RANKS, MENU[16:], horizon=2))
    for ext in all_extensions():
        assert recovered(K, ext) == op(K, ext), sorted(ext)


def test_revision_from_system_true_gives_initial_beliefs(ranked_sys):
    recovered = revision_from_system(ranked_sys, validate=False)
    assert recovered(K, PQ.all_worlds()) == bel(ranked_sys, ())


def test_conditioning_is_order_insensitive_at_belief_level(ranked_sys):
    """Beliefs after any attainable observation sequence equal the minimal
    worlds of the sequence's conjunction under the initial world ranking."""
    menu = [TRUE, P_, Q_, Not(Q_), And(P_, Q_)]
    for seq in itertools.chain(
        itertools.product(menu, repeat=1), itertools.product(menu, repeat=2)
    ):
        conj = PQ.all_worlds()
        for o in seq:
            conj &= PQ.extension(o)
        best = min((RANKS[x] for x in conj), default=INF)
        expected = (
            frozenset() if best == INF else frozenset(x for x in conj if RANKS[x] == best)
        )
        assert bel(ranked_sys, tuple(seq)) == expected, [str(f) for f in seq]


def test_inconsistency_absorption(ranked_sys):
    dead = (P_, Not(P_))
    assert bel(ranked_sys, dead) == frozenset()
    for f in MENU[:6]:
        assert bel(ranked_sys, dead + (f,)) == frozenset()


def test_validate_rev_catches_changing_environment(ranked_sys):
    from beliefchange.plausibility import RankedMeasure
    from beliefchange.systems import Run, System

    drift = Run((w("11"), w("10"), w("10")), (TRUE, TRUE))
    runs = ranked_sys.runs + (drift,)
    sys_ = System(
        vocab=PQ,
        runs=runs,
        prior=RankedMeasure(runs, [RANKS[r.envs[0]] for r in runs]),
        horizon=2,
        menu=ranked_sys.menu,
    )
    report = validate_rev(sys_)
    assert not report["REV1"].passed


def test_validate_rev_catches_unreachable_world():
    gappy = dict(RANKS)
    gappy[w("00")] = INF  # that world can never be believed possible
    sys_ = system_from_ranking(PQ, gappy, MENU, horizon=1)
    report = validate_rev(sys_)
    assert not report["REV3"].passed
    assert "00" in report["REV3"].witness


def test_validate_rev_catches_informative_observations():
    """Observations that can only be made in particular worlds leak extra
    information, breaking the strong neutrality condition."""
    from beliefchange.plausibility import RankedMeasure
    from beliefchange.systems import Run, System

    # p is observable only where q also holds; !q never observable
    runs = []
    for world in PQ.worlds():
        for o in (TRUE, P_):
            if world in PQ.extension(o):
                if o == P_ and world not in PQ.extension(Q_):
                    continue
                runs.append(Run((world, world), (o,)))
    prior = RankedMeasure(runs, [RANKS[r.envs[0]] for r in runs])
    sys_ = System(vocab=PQ, runs=tuple(runs), prior=prior, horizon=1, menu=(TRUE, P_))
    report = validate_rev(sys_)
    assert report["REV1"].passed
    assert not report["REV4"].passed


# ---------------------------------------------------------------------------
# one-step revision away from the initial state


def test_revise_at_state_idempotent_conditioning(ranked_sys):
    assert revise_at_state(ranked_sys, (P_,), P_) == bel(ranked_sys, (P_,))


def test_revise_at_state_contradicting_past_collapses(ranked_sys):
    assert revise_at_state(ranked_sys, (P_,), Not(P_)) == frozenset()


def test_revise_at_state_empty_prefix_is_plain_revision(ranked_sys):
    op = revision_from_system(ranked_sys, validate=False)
    for f in MENU[:8]:
        assert revise_at_state(ranked_sys, (), f) == op(K, PQ.extension(f))


def test_revise_at_state_matches_bel_on_attainable_extensions(ranked_sys):
    for first in (TRUE, P_, Q_):
        for f in (P_, Q_, And(P_, Q_), Not(Q_)):
            got = revise_at_state(ranked_sys, (first,), f)
            if f in ranked_sys.menu:
                assert got == bel(ranked_sys, (first, f))


def test_revise_at_state_requires_attainable_state(ranked_sys):
    with pytest.raises(RevisionError):
        revise_at_state(ranked_sys, (Atom("p"), FALSE), P_)


# ---------------------------------------------------------------------------
# epistemic states


def test_epistemic_bel_retreats_to_consistent_suffix(ranked_sys):
    state = (P_, Not(P_))
    assert longest_consistent_suffix(ranked_sys, state) == (Not(P_),)
    assert epistemic_bel(ranked_sys, state) == bel(ranked_sys, (Not(P_),))


def test_epistemic_bel_inconsistent_last_observation(ranked_sys):
    assert epistemic_bel(ranked_sys, (And(P_, Not(P_)),)) == frozenset()
    assert longest_consistent_suffix(ranked_sys, (And(P_, Not(P_)),)) == (FALSE,)


def test_epistemic_bel_agrees_on_attainable_states(ranked_sys):
    for seq in [(), (P_,), (P_, Q_), (Q_, Not(Q_) if False else Q_)]:
        assert epistemic_bel(ranked_sys, seq) == bel(ranked_sys, tuple(seq))


def test_epistemic_postulates_hold(ranked_sys):
    probes = [TRUE, P_, Q_, Not(P_), Not(Q_), And(P_, Q_), FALSE]
    seqs = [()]
    for k in (1, 2, 3):
        seqs += list(itertools.product([P_, Not(P_), Q_], repeat=k))
    report = check_agm_epistemic(ranked_sys, sequences=seqs, probes=probes)
    assert report.all_passed, report.to_text()


def test_epistemic_r9_instance(ranked_sys):
    both = epistemic_bel(ranked_sys, (And(P_, Q_),))
    stepped = epistemic_bel(ranked_sys, (P_, Q_))
    assert both == stepped


def test_epistemic_r2_instance(ranked_sys):
    for f in (P_, Q_, Not(Q_)):
        assert epistemic_bel(ranked_sys, (Q_, f)) <= PQ.extension(f)


# ---------------------------------------------------------------------------
# the conditioning readers, against the min-rank code they replace

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "src", "beliefchange", "scenarios")


def best_run_ranks(sys_):
    """Each world's rank: the best rank of a run that starts there."""
    index = sys_.index
    return {x: rank_of(index.prior, index.at[0].get(x, Mask(0))) for x in sys_.universe}


def reference_revise_at_state(sys_, s_a, observed):
    target = sys_.universe & sys_.vocab.extension(observed)
    for o in s_a:
        target &= sys_.vocab.extension(o)
    return min_rank_worlds(best_run_ranks(sys_), target)


def reference_epistemic_bel(sys_, state):
    if not state:
        return bel(sys_, ())
    ext = sys_.vocab.extension
    start = len(state) - 1
    suffix = ext(state[start]) & sys_.universe
    while suffix and start > 0 and suffix & ext(state[start - 1]):
        suffix, start = suffix & ext(state[start - 1]), start - 1
    return min_rank_worlds(best_run_ranks(sys_), suffix)


def _reader_systems():
    ties = {w("11"): 1, w("10"): 0, w("01"): INF, w("00"): 0}
    return {
        "ranked": system_from_ranking(PQ, RANKS, MENU, horizon=2),
        "ranked_basic": build_system(load_scenario(os.path.join(SCENARIOS, "ranked_basic.scn"))),
        "ties-and-infinite": system_from_ranking(PQ, ties, [TRUE, P_, Q_, Not(P_)], 3),
    }


READER_SYSTEMS = _reader_systems()


def test_extracted_operator_is_min_rank_on_every_extension():
    # the bundled ranked scenario; criterion 3 does the same for every
    # ranking of p, q
    scenario = load_scenario(os.path.join(SCENARIOS, "ranked_basic.scn"))
    sys_ = build_system(scenario)
    belief = PQ.extension(scenario.belief)
    op = revision_from_system(sys_)
    for ext in all_extensions():
        assert op(belief, ext) == min_rank_worlds(scenario.ranks, ext), sorted(ext)


@pytest.mark.parametrize("name", sorted(READER_SYSTEMS))
def test_epistemic_bel_matches_the_min_rank_reference(name):
    sys_ = READER_SYSTEMS[name]
    inputs = list(dict.fromkeys(list(sys_.menu) + [FALSE, Not(Q_)]))
    for k in range(4):
        for state in itertools.product(inputs, repeat=k):
            assert epistemic_bel(sys_, state) == reference_epistemic_bel(sys_, state), state


@pytest.mark.parametrize("name", sorted(READER_SYSTEMS))
def test_revise_at_state_matches_the_min_rank_reference(name):
    sys_ = READER_SYSTEMS[name]
    for s_a in sys_.index.prefix:
        for f in list(sys_.menu) + [FALSE, Not(Q_), And(Not(P_), Q_)]:
            assert revise_at_state(sys_, s_a, f) == reference_revise_at_state(sys_, s_a, f)


def test_a_strict_linear_preference_root_yields_an_operator():
    # a chain on worlds, read by each run through its initial world: the
    # readers compare events where a rank reader could not go
    order = [w("10"), w("11"), w("00"), w("01")]
    worlds = tuple(PQ.worlds())
    chain = from_preference(worlds, zip(order, order[1:]))
    sys_ = static_system(
        PQ, [TRUE, P_, Q_, Not(Q_)], 2,
        lambda runs: MappedMeasure(runs, chain, [worlds.index(run.envs[0]) for run in runs]),
    )
    ranks = {x: i for i, x in enumerate(order)}
    belief = frozenset({w("10")})
    assert bel(sys_, ()) == belief
    op = revision_from_system(sys_)
    for ext in all_extensions():
        assert op(belief, ext) == min_rank_worlds(ranks, ext), sorted(ext)
    assert revise_at_state(sys_, (Q_,), P_) == frozenset({w("11")})
    assert epistemic_bel(sys_, (Not(P_), P_, Q_)) == frozenset({w("11")})
    assert epistemic_bel(sys_, (Q_, Not(P_))) == frozenset({w("01")})
