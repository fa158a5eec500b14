"""Exact FAIL witnesses of the checkers, on hand-built failing inputs.

Each witness is the first counterexample in its checker's fixed visiting
order, so these strings pin both the order and the budgets that stop a
sweep.
"""
from collections import Counter

import pytest

from beliefchange import update
from beliefchange.diagnosis import Circuit, Gate, build_diag_system, check_prop_diag
from beliefchange.formulas import TRUE, And, Atom, Not, Vocabulary
from beliefchange.plausibility import INF, CustomMeasure, Ordering, RankedMeasure
from beliefchange.revision import (
    RevisionOperator,
    check_agm,
    check_agm_epistemic,
    operator_from_ranking,
    system_from_ranking,
    validate_rev,
)
from beliefchange.synthesis import statify, verify_statification
from beliefchange.systems import (
    BudgetError,
    Run,
    System,
    check_prior_local_rule,
    validate_bcs,
)
from beliefchange.update import (
    DistancePoset,
    LexPrior,
    UpdateStructure,
    check_km,
    hamming_structure,
    system_from_update,
    update_operator,
    validate_upd,
)

PQ = Vocabulary(["p", "q"])
w = PQ.world_from_str
P_ = Atom("p")
Q_ = Atom("q")
RANKS = {w("11"): 0, w("10"): 1, w("01"): 1, w("00"): 2}
HAMMING = hamming_structure(PQ)


@pytest.fixture(scope="module")
def revsys():
    return system_from_ranking(PQ, RANKS, [TRUE, P_, Q_, Not(Q_)], horizon=2)


@pytest.fixture(scope="module")
def updsys():
    return system_from_update(HAMMING, 2, (TRUE, P_, Not(Q_)))


def with_prior(sys_, prior, runs=None, **fields):
    runs = sys_.runs if runs is None else runs
    return System(
        sys_.vocab, runs, prior, sys_.horizon, universe=sys_.universe, menu=sys_.menu, **fields
    )


# ---------------------------------------------------------------------------
# revision conditions


def test_rev2_rev4_on_a_partial_prior(updsys):
    report = validate_rev(updsys)
    assert report["REV2"].witness == "incomparable singleton runs exist (prior is not total)"
    assert report["REV4"].witness == "probes (false, !p) after observing <p, true>"
    assert report["REV4'"].witness == "probes (q, !p) after observing <p, true>"


def test_rev4_budget_cuts_the_sweep(updsys):
    # 6 probes after the nine two-observation sequences: the largest part,
    # 324 probe pairs, holds the witness
    report = validate_rev(updsys, budget=324)
    assert report["REV4"].witness == "probes (false, !p) after observing <p, true>"
    assert report["REV4'"].witness == "probes (q, !p) after observing <p, true>"
    with pytest.raises(BudgetError, match=(
        "REV4: 324 probe pairs after 2-observation sequences exceed the budget of 323"
    )):
        validate_rev(updsys, budget=323)


def _equal_except(sys_, decide):
    """``sys_`` under a prior where run sets compare EQUAL unless ``decide``
    returns an ordering."""
    return with_prior(sys_, CustomMeasure(sys_.runs, lambda a, b: decide(a, b) or Ordering.EQUAL))


def test_rev2_incomparable_pair_respects_budget(revsys):
    runs = revsys.runs
    ends = {frozenset([runs[0]]), frozenset([runs[-1]])}
    sys_ = _equal_except(revsys, lambda a, b: Ordering.INCOMPARABLE if {a, b} == ends else None)
    # (first run, last run) is pair number len(runs) - 1 in the visiting
    # order; no observation sequences, so REV4 takes nothing of the budget
    assert validate_rev(sys_, obs_sequences=(), budget=len(runs) - 2)["REV2"].passed
    assert (
        validate_rev(sys_, obs_sequences=(), budget=len(runs) - 1)["REV2"].witness
        == "incomparable singleton runs exist (prior is not total)"
    )


def test_rev2_union_law_respects_budget(revsys):
    runs = revsys.runs
    union = frozenset([runs[0], runs[-1]])

    def decide(a, b):
        if a == union and len(b) == 1:
            return Ordering.GREATER
        if b == union and len(a) == 1:
            return Ordering.LESS
        return None

    sys_ = _equal_except(revsys, decide)
    assert validate_rev(sys_, obs_sequences=(), budget=len(runs) - 2)["REV2"].passed
    assert (
        validate_rev(sys_, obs_sequences=(), budget=len(runs) - 1)["REV2"].witness
        == "union does not take the maximum of its parts"
    )


# ---------------------------------------------------------------------------
# update conditions


def test_upd2_against_a_foreign_distance(updsys):
    flat = UpdateStructure(
        PQ,
        PQ.worlds(),
        {(a, b): 1 for a in PQ.worlds() for b in PQ.worlds() if a != b},
        DistancePoset.naturals(2),
    )
    report = validate_upd(updsys, structure=flat)
    assert report["UPD2"].witness == "cells (0, 1) vs (0, 3): unexpected strict comparison >"


def _dropped(updsys, keep):
    runs = tuple(r for r in updsys.runs if keep(r))
    return with_prior(updsys, LexPrior(runs, HAMMING), runs)


def test_upd3_missing_state_sequence(updsys):
    sys_ = _dropped(updsys, lambda r: r.envs[:2] != (w("00"), w("11")))
    assert validate_upd(sys_)["UPD3"].witness == "state sequence 00,11,00 has no run"


@pytest.fixture(scope="module")
def no_p_at_11(updsys):
    # observing p never happens at world 11, so observing it is informative
    return _dropped(updsys, lambda r: not (r.envs[1] == w("11") and r.obs[0] == P_))


def test_upd4_informative_observation(no_p_at_11):
    report = validate_upd(no_p_at_11)
    assert report["UPD4"].witness == "formulas <true, true, !q> vs <true, true, true> observing <p>"
    assert report["UPD2"].passed


@pytest.mark.parametrize(
    "budget, message",
    [
        (119, "UPD2: 120 pairs of length-2 cells exceed the budget of 119"),
        (2015, "UPD2: 2016 pairs of length-3 cells exceed the budget of 2015"),
        (2186, "UPD4: 2187 instances with one observation exceed the budget of 2186"),
    ],
    ids=["upd2-length-2-cells", "upd2-length-3-cells", "upd4-one-observation"],
)
def test_upd_sweeps_raise_at_the_first_part_past_the_budget(no_p_at_11, budget, message):
    with pytest.raises(BudgetError) as err:
        validate_upd(no_p_at_11, budget=budget)
    assert str(err.value) == message


def test_upd2_witness_wins_over_a_later_part_past_the_budget(updsys):
    # ranked by size, the cells of length 2 already disagree with the
    # distance; the 2,016 pairs of length 3 come after
    sys_ = with_prior(updsys, CustomMeasure(updsys.runs, _by_size))
    witness = next(update._check_upd2(sys_, HAMMING, 120))
    assert witness == "cells (0, 0) vs (0, 2): expected strictly above, got <"
    with pytest.raises(BudgetError, match="UPD2: 120 pairs"):
        next(update._check_upd2(sys_, HAMMING, 119))


# ---------------------------------------------------------------------------
# statification


def _tampered_twin(sys_):
    st = statify(sys_)
    runs = list(st.inner.runs)
    to_source = dict(st.to_source)
    to_source[runs[0]], to_source[runs[-1]] = to_source[runs[-1]], to_source[runs[0]]
    st.to_source = to_source  # the twin's prior still reads the true bijection
    return st


def test_prior_iso_exhaustive_witness():
    # the swapped runs disagree already as single runs
    st = _tampered_twin(system_from_update(HAMMING, 1, (TRUE, P_)))
    report = verify_statification(st)
    assert report["PRIOR-ISO"].witness == "subset pair of sizes (1, 1) compares differently"


def test_prior_iso_witness_between_single_runs(updsys):
    # 64 cells plus the two swapped runs' classes, and the empty set: 4,489
    # pairs, past UPD4's 2,187 instances with one observation
    st = _tampered_twin(updsys)
    report = verify_statification(st, budget=4489)
    assert report["PRIOR-ISO"].witness == "subset pair of sizes (1, 1) compares differently"
    with pytest.raises(BudgetError) as err:
        verify_statification(st, budget=4488)
    assert str(err.value) == (
        "PRIOR-ISO: 4489 pairs of the empty set and 66 single runs exceed the budget of 4488"
    )


# ---------------------------------------------------------------------------
# belief change systems and the local rule


def _flipped_override(sys_):
    s_a = (P_,)
    pts = sys_.points_with_local_state(s_a)
    ranks = [2 - min(RANKS[r.envs[0]], 2) for r, t in pts]
    return with_prior(sys_, sys_.prior, point_measures={s_a: RankedMeasure(pts, ranks)})


def test_local_rule_witness(revsys):
    report = check_prior_local_rule(_flipped_override(revsys))
    assert report["LOCAL-RULE"].witness == "local state <p>: subset masks (0x1, 0x8) disagree"


def test_local_rule_stops_before_a_later_oversized_state(revsys):
    # runs observing p first come first, so the failing state <p> (6 points)
    # is visited before <true> (10 points, past max_points)
    runs = tuple(sorted(revsys.runs, key=lambda r: r.obs[0] != P_))
    sys_ = _flipped_override(with_prior(revsys, revsys.prior, runs))
    report = check_prior_local_rule(sys_, max_points=6)
    assert report["LOCAL-RULE"].witness == "local state <p>: subset masks (0x1, 0x8) disagree"


def test_bcs5_override_witness(revsys):
    report = validate_bcs(_flipped_override(revsys))
    assert (
        report["BCS5"].witness
        == "measure at <p> is not the conditioned prior (masks 0x1, 0x8)"
    )


@pytest.fixture(scope="module")
def reversed_update_override():
    # the conditioned prior at <true> with every comparison turned around
    sys_ = system_from_update(hamming_structure(Vocabulary(["p"])), 1, (TRUE, P_))
    m = sys_.plaus_at((TRUE,))
    flipped = CustomMeasure(m.carrier, lambda a, b: m.compare(b, a))
    return with_prior(sys_, sys_.prior, point_measures={(TRUE,): flipped})


def test_local_rule_witness_on_a_reversed_update_override(reversed_update_override):
    report = check_prior_local_rule(reversed_update_override)
    assert report["LOCAL-RULE"].witness == "local state <true>: subset masks (0x0, 0x1) disagree"


def test_bcs5_witness_on_a_reversed_update_override(reversed_update_override):
    report = validate_bcs(reversed_update_override)
    assert (
        report["BCS5"].witness
        == "measure at <true> is not the conditioned prior (masks 0x0, 0x1)"
    )


def _late_point_override(sys_):
    # <true> has 10 points; only the last one's rank differs from conditioning
    s_a = (TRUE,)
    pts = sys_.points_with_local_state(s_a)
    ranks = [RANKS[r.envs[0]] for r, t in pts]
    assert ranks[-1] == 0
    ranks[-1] = 5
    return with_prior(sys_, sys_.prior, point_measures={s_a: RankedMeasure(pts, ranks)})


def test_bcs5_sweeps_every_point_of_an_override(revsys):
    report = validate_bcs(_late_point_override(revsys), budget=10**7)
    assert (
        report["BCS5"].witness
        == "measure at <true> is not the conditioned prior (masks 0x1, 0x200)"
    )


def test_bcs5_oversized_override_raises(revsys):
    with pytest.raises(BudgetError, match="local state <true>"):
        validate_bcs(_late_point_override(revsys))


def test_bcs5_carrier_witness(revsys):
    pts = revsys.points_with_local_state((P_,))
    short = RankedMeasure(pts[1:], [0 for p in pts[1:]])
    report = validate_bcs(with_prior(revsys, revsys.prior, point_measures={(P_,): short}))
    assert report["BCS5"].witness == "carrier mismatch at <p>"


def _by_size(a, b):
    """More runs, more plausible: monotone, but not qualitative."""
    if len(a) == len(b):
        return Ordering.EQUAL
    return Ordering.GREATER if len(a) > len(b) else Ordering.LESS


def _by_size_system(n):
    worlds = [w("11"), w("10"), w("01"), w("00")]
    runs = tuple(Run((worlds[i % 4], worlds[i // 4 % 4]), (TRUE,)) for i in range(n))
    return System(PQ, runs, CustomMeasure(runs, _by_size), 1, menu=(TRUE,))


def test_bcs5_prior_axiom_witness():
    report = validate_bcs(_by_size_system(3))
    assert report["BCS5"].witness == "prior is not qualitative"
    assert report.notes == []


def test_bcs5_sweeps_a_custom_prior_or_raises():
    # 4^7 = 16,384 disjoint triples fit the default budget of 20,000
    report = validate_bcs(_by_size_system(7))
    assert report["BCS5"].witness == "prior is not qualitative"
    assert report.notes == []
    with pytest.raises(BudgetError) as err:
        validate_bcs(_by_size_system(8))
    assert str(err.value) == (
        "BCS5: 65536 disjoint triples of the prior's 8 elements exceed the budget of 20000"
    )


def test_bcs5_notes_the_prior_axioms_that_hold_by_construction(revsys, updsys):
    note = "BCS5: the prior axioms hold by construction: the prior's root is "
    assert validate_bcs(revsys).notes == [note + "a ranked measure"]
    report = validate_bcs(updsys)
    assert report.notes == [note + "the dominance lift of a strict partial order"]
    assert "# " + note in report.to_text() and "construction" not in report.to_machine()


# ---------------------------------------------------------------------------
# epistemic revision postulates


def test_epistemic_r5_with_a_bottom_world():
    ranks = dict(RANKS)
    ranks[w("00")] = INF
    sys_ = system_from_ranking(PQ, ranks, [TRUE, P_, Q_, Not(Q_)], horizon=2)
    report = check_agm_epistemic(sys_, probes=[And(Not(P_), Not(Q_)), P_, Q_])
    assert report["R5'"].witness == "E=<>, input !p & !q"
    assert [r.name for r in report.failures()] == ["R5'"]


def test_epistemic_r3_r4_with_an_initial_override(revsys):
    pts = revsys.points_with_local_state(())
    prefers_00 = RankedMeasure(pts, [0 if r.envs[0] == w("00") else 1 for r, t in pts])
    report = check_agm_epistemic(
        with_prior(revsys, revsys.prior, point_measures={(): prefers_00})
    )
    assert report["R3'"].witness == "E=<>, input true"
    assert report["R4'"].witness == "E=<>, input true"
    assert [r.name for r in report.failures()] == ["R3'", "R4'"]


# ---------------------------------------------------------------------------
# diagnosis


CHAIN = Circuit(
    [Gate("c1", "AND", ("l1", "l2"), "l3"), Gate("c2", "NOT", ("l3",), "l4")],
    ["l1", "l2", "l4"],
)


@pytest.fixture(scope="module")
def chain_sys():
    return build_diag_system(CHAIN, [{"l1": True, "l2": True}])


def test_diagnosis_surprise_under_a_swapped_prior(chain_sys):
    # the double fault outranks both single faults
    rank = {frozenset(): 0, frozenset({"c1"}): 2, frozenset({"c2"}): 2, frozenset({"c1", "c2"}): 1}
    prior = RankedMeasure(chain_sys.runs, [rank[CHAIN.fault_set(r.envs[0])] for r in chain_sys.runs])
    report = check_prop_diag(with_prior(chain_sys, prior), CHAIN)
    assert report["SURPRISE"].witness == "at <h_l1 & h_l2 & h_l4>: surprise mismatch"
    assert [r.name for r in report.failures()] == ["SURPRISE"]


def test_diagnosis_persistence_with_a_changing_fault(chain_sys):
    faulty = next(r for r in chain_sys.runs if CHAIN.fault_set(r.envs[0]))
    healthy = next(r for r in chain_sys.runs if not CHAIN.fault_set(r.envs[0]))
    runs = chain_sys.runs + (Run((healthy.envs[0], faulty.envs[1]), faulty.obs),)
    prior = RankedMeasure(runs, [len(CHAIN.fault_set(r.envs[0])) for r in runs])
    report = check_prop_diag(with_prior(chain_sys, prior, runs), CHAIN)
    assert report["PERSISTENCE"].witness == "a run changes its fault set over time"


# ---------------------------------------------------------------------------
# postulate suites: every R1-R8 and U1-U8 that a deterministic operator can
# break.  R6 cannot be broken by one: both parses of each probe denote the
# same extension, so a deterministic operator answers them alike.


def failures(report):
    return {r.name: r.witness for r in report if not r.passed}


def _second(ext):
    """The second-smallest world of a set; a smaller set stays as it is."""
    s = sorted(ext)
    return frozenset(s[1:2] or s)


K = frozenset({w("11")})
AGM_BREAKERS = {
    "outside the vocabulary": (lambda k, e: e | {4}, {
        "R1": "output not an extension for input {}",
        "R2": "revision by {} leaves its extension",
        "R4": "consistent revision by {00,01,10,11} adds foreign worlds",
        "R5": "emptiness mismatch for input {}",
        "R8": "conjunctive revision {00} & {00} added worlds beyond the narrowed result",
    }),
    "input ignored": (lambda k, e: k, {
        "R2": "revision by {} leaves its extension",
        "R5": "emptiness mismatch for input {}",
    }),
    "overlap dropped": (lambda k, e: (e - k) or e, {
        "R3": "revision by {00,01,10,11} loses part of the belief overlap",
        "R4": "consistent revision by {00,01,10,11} adds foreign worlds",
    }),
    "singletons emptied": (lambda k, e: e if len(e) > 1 else frozenset(), {
        "R3": "revision by {11} loses part of the belief overlap",
        "R4": "consistent revision by {00,01,10,11} adds foreign worlds",
        "R5": "emptiness mismatch for input {00}",
        "R7": "conjunctive revision {00,01} & {00} dropped compatible worlds",
    }),
    "maximum of three or more": (lambda k, e: frozenset([max(e)]) if len(e) >= 3 else e, {
        "R4": "consistent revision by {00,11} adds foreign worlds",
        "R8": "conjunctive revision {00,01,10} & {00,10} added worlds beyond the narrowed result",
    }),
}


@pytest.mark.parametrize("name", sorted(AGM_BREAKERS))
def test_agm_witnesses(name):
    apply, expected = AGM_BREAKERS[name]
    assert failures(check_agm(RevisionOperator(apply, PQ), K)) == expected


def test_agm_witness_from_an_intersection_outside_the_pool():
    # {01,11} & {10,11} = {11} is no extension of the pool
    op = RevisionOperator(lambda k, e: e if len(e) > 1 else frozenset(), PQ)
    assert failures(check_agm(op, K, formulas=[P_, Q_])) == {
        "R4": "consistent revision by {01,11} adds foreign worlds",
        "R7": "conjunctive revision {01,11} & {10,11} dropped compatible worlds",
    }


def _global_min(mu, phi):
    """Minimal change measured from the belief set as a whole."""
    if not mu or not phi:
        return frozenset()
    best = min(HAMMING.d(a, b) for a in mu for b in phi)
    return frozenset(b for b in phi if any(HAMMING.d(a, b) == best for a in mu))


KM_BREAKERS = {
    "beliefs kept": (lambda mu, phi: mu, {
        "U1": "update {00} by {} leaves the observation",
        "U3": "emptiness mismatch for {00} by {}",
    }),
    "world outside the set added": (lambda mu, phi: phi | {7}, {
        "U1": "update {} by {} leaves the observation",
        "U2": "update of {} by implied {} changed beliefs",
        "U3": "emptiness mismatch for {} by {}",
    }),
    # outside worlds must stay distinct: {101} differs from {100,101}
    "outside world per belief size": (lambda mu, phi: frozenset([100 + len(mu)]), {
        "U1": "update {} by {} leaves the observation",
        "U2": "update of {} by implied {} changed beliefs",
        "U3": "emptiness mismatch for {} by {}",
        "U8": "update of {} | {00} by {} is not the union of the parts",
    }),
    "observation echoed": (lambda mu, phi: phi, {
        "U2": "update of {} by implied {00} changed beliefs",
        "U3": "emptiness mismatch for {} by {00}",
    }),
    "second-smallest world": (lambda mu, phi: _second(phi) if mu else frozenset(), {
        "U2": "update of {00} by implied {00,01} changed beliefs",
        "U5": "narrowing {00} by {00,01,10} then {01,10} lost worlds",
        "U6": "mutually entailing updates of {00} by {01,10}, {00,01,10} differ",
        "U7": "complete belief {00}: updates by {00,10} and {01,10} disagree with their disjunction",
    }),
    "global minimisation": (_global_min, {
        "U8": "update of {00} | {01} by {01,10} is not the union of the parts",
    }),
}


@pytest.mark.parametrize("name", sorted(KM_BREAKERS))
def test_km_witnesses(name):
    op, expected = KM_BREAKERS[name]
    assert failures(check_km(op, HAMMING.worlds, PQ)) == expected


def test_km_u4_with_a_world_outside_the_vocabulary():
    # world 101 has no formula over p q; its canonical formula denotes 01
    assert failures(check_km(lambda mu, phi: phi, [0, 1, 5], PQ)) == {
        "U2": "update of {} by implied {00} changed beliefs",
        "U3": "emptiness mismatch for {} by {00}",
        "U4": "syntax leaked for {} by {101}",
    }


def _counting(op):
    calls = Counter()

    def counted(*args):
        calls[tuple(frozenset(a) for a in args)] += 1
        return op(*args)

    return counted, calls


def test_check_km_calls_the_operator_once_per_pair():
    op, calls = _counting(update_operator(HAMMING))
    assert check_km(op, HAMMING.worlds, PQ).all_passed
    assert len(calls) == 256
    assert set(calls.values()) == {1}


def test_check_agm_calls_the_operator_once_per_input():
    ranks = {w("11"): 0, w("10"): 1, w("01"): 1, w("00"): 2}
    apply, calls = _counting(operator_from_ranking(ranks, PQ).apply)
    assert check_agm(RevisionOperator(apply, PQ), K).all_passed
    assert len(calls) == 16
    assert set(calls.values()) == {1}


def test_check_agm_on_three_propositions_calls_the_operator_once_per_input():
    pqr = Vocabulary(["p", "q", "r"])
    ranks = {x: bin(x).count("1") for x in pqr.worlds()}
    apply, calls = _counting(operator_from_ranking(ranks, pqr).apply)
    assert check_agm(RevisionOperator(apply, pqr), frozenset({0})).all_passed
    assert len(calls) == 256
    assert set(calls.values()) == {1}
