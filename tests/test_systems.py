import itertools
import os
import re
import subprocess
import sys

import pytest

from beliefchange.formulas import TRUE, And, Atom, Not, Or, Vocabulary
from beliefchange.plausibility import CustomMeasure, RankedMeasure
from beliefchange import systems
from beliefchange.revision import system_from_ranking
from beliefchange.scenario import build_system, load_scenario
from beliefchange.systems import (
    Believes,
    BudgetError,
    Conditional,
    HorizonError,
    KAnd,
    KNot,
    Knows,
    Learn,
    Next,
    Run,
    System,
    bel,
    check_prior_local_rule,
    indistinguishable,
    model_check,
    validate_bcs,
)

PQ = Vocabulary(["p", "q"])
w = PQ.world_from_str
P_ = Atom("p")
Q_ = Atom("q")

RANKS = {w("11"): 0, w("10"): 1, w("01"): 1, w("00"): 2}
MENU = [TRUE, P_, Q_, Not(Q_)]


@pytest.fixture(scope="module")
def revsys():
    return system_from_ranking(PQ, RANKS, MENU, horizon=2)


@pytest.fixture(scope="module")
def updsys():
    from beliefchange.update import hamming_structure, system_from_update

    return system_from_update(hamming_structure(PQ), 2, [TRUE, P_, Not(Q_)])


def points_of(sys_):
    """Every point of a system, run by run and time by time."""
    return ((run, m) for run in sys_.runs for m in range(sys_.horizon + 1))


# ---------------------------------------------------------------------------
# indistinguishability


def test_indistinguishable_reflexive(revsys):
    for point in itertools.islice(points_of(revsys), 50):
        assert indistinguishable(revsys, point, point)


def test_indistinguishable_requires_equal_times(revsys):
    r = revsys.runs[0]
    assert not indistinguishable(revsys, (r, 0), (r, 1))


def test_indistinguishable_shared_prefix(revsys):
    shared = [r for r in revsys.runs if r.obs[0] == P_]
    assert len(shared) >= 2
    assert indistinguishable(revsys, (shared[0], 1), (shared[1], 1))


def test_synchrony_and_perfect_recall(revsys):
    points = list(points_of(revsys))
    for p1, p2 in itertools.product(points[:40], points[:40]):
        if indistinguishable(revsys, p1, p2):
            assert p1[1] == p2[1]
            if p1[1] > 0:
                assert indistinguishable(revsys, (p1[0], p1[1] - 1), (p2[0], p2[1] - 1))


# ---------------------------------------------------------------------------
# conditioning


def test_condition_prior_empty_prefix_is_all_runs(revsys):
    m = revsys.plaus_at(())
    assert len(m.carrier) == len(revsys.runs)
    runs = frozenset(revsys.runs)
    a = frozenset(list(m.carrier)[:3])
    b = frozenset(list(m.carrier)[3:6])
    assert m.compare(a, b) is revsys.prior.compare(
        frozenset(r for r, _ in a), frozenset(r for r, _ in b)
    )


def test_condition_prior_unattainable_state_empty(revsys):
    bad = (And(P_, Not(P_)),)
    assert revsys.plaus_at(bad).carrier == ()


def test_condition_prior_filters_by_first_observation(revsys):
    m = revsys.plaus_at((Not(Q_),))
    assert m.carrier
    for run, t in m.carrier:
        assert t == 1
        assert run.obs[0] == Not(Q_)


# ---------------------------------------------------------------------------
# model checking


def test_knowledge_implies_truth(revsys):
    for point in itertools.islice(points_of(revsys), 60):
        for f in (P_, Q_, And(P_, Q_)):
            if model_check(revsys, point, Knows(f)):
                assert model_check(revsys, point, f)


def test_next_advances_time(revsys):
    for run in revsys.runs[:10]:
        for m in range(revsys.horizon):
            assert model_check(revsys, (run, m), Next(P_)) == model_check(
                revsys, (run, m + 1), P_
            )


def test_next_respects_horizon(revsys):
    run = revsys.runs[0]
    with pytest.raises(HorizonError):
        model_check(revsys, (run, revsys.horizon), Next(P_))


def test_learn_false_at_time_zero(revsys):
    for run in revsys.runs[:20]:
        for o in revsys.menu:
            assert not model_check(revsys, (run, 0), Learn(o))


def test_learn_tracks_syntactic_observation(revsys):
    run = next(r for r in revsys.runs if r.obs[0] == P_)
    assert model_check(revsys, (run, 1), Learn(P_))
    assert not model_check(revsys, (run, 1), Learn(And(P_, TRUE)))


def test_belief_is_conditional_on_truth(revsys):
    for run in revsys.runs[:10]:
        point = (run, 0)
        assert model_check(revsys, point, Believes(P_)) == model_check(
            revsys, point, Conditional(TRUE, P_)
        )


def _kpt_pool():
    base = [P_, Q_, And(P_, Q_), Or(P_, Not(Q_))]
    modal = [Knows(f) for f in base[:2]] + [Believes(f) for f in base[:2]]
    modal += [Conditional(P_, Q_), Next(P_)]
    return base + modal


def test_knowledge_is_s5(revsys):
    pool = _kpt_pool()
    points = [p for p in points_of(revsys) if p[1] < revsys.horizon]
    for point in points[:25]:
        for f in pool:
            kf = model_check(revsys, point, Knows(f))
            if kf:
                assert model_check(revsys, point, f)  # truth
                assert model_check(revsys, point, Knows(Knows(f)))  # positive introspection
            else:
                assert model_check(revsys, point, Knows(KNot(Knows(f))))  # negative introspection
        for f, g in itertools.product(pool[:4], repeat=2):
            if model_check(revsys, point, Knows(KAnd(f, g))):
                assert model_check(revsys, point, Knows(f))
                assert model_check(revsys, point, Knows(g))


def test_knowledge_belief_interaction(revsys):
    pool = _kpt_pool()
    points = [p for p in points_of(revsys) if p[1] < revsys.horizon]
    for point in points[:25]:
        for f in pool:
            if model_check(revsys, point, Knows(f)):
                assert model_check(revsys, point, Believes(f))
            if model_check(revsys, point, Believes(f)):
                assert model_check(revsys, point, Knows(Believes(f)))


# ---------------------------------------------------------------------------
# bel


def test_bel_unattainable_is_empty(revsys):
    assert bel(revsys, (And(P_, Not(P_)),)) == frozenset()


def test_bel_initial_is_minimal_worlds(revsys):
    assert bel(revsys, ()) == frozenset({w("11")})


def test_bel_after_observation(revsys):
    assert bel(revsys, (Not(Q_),)) == frozenset({w("10")})


def test_bel_depends_only_on_local_state(revsys):
    # recomputing through any point with the same local state agrees
    s_a = (P_,)
    points = revsys.points_with_local_state(s_a)
    assert len(points) > 1
    expected = bel(revsys, s_a)
    for run, m in points:
        assert bel(revsys, run.local_state(m)) == expected


def test_bel_generic_path_matches_ranked_path(revsys):
    # the ranked prior replayed through a custom measure is read by the
    # comparison rule, not by rank levels; both readings must agree
    prior = revsys.prior
    replay = CustomMeasure(prior.carrier, prior.compare)
    generic = System(revsys.vocab, revsys.runs, replay, revsys.horizon, menu=revsys.menu)
    for s_a in [(), (P_,), (Not(Q_),), (P_, Q_), (P_, Not(P_))]:
        assert bel(generic, s_a) == bel(revsys, s_a)


def test_bel_bottom_carrier_is_empty():
    from beliefchange.plausibility import INF

    vocab = Vocabulary(["p"])
    run = Run((0, 0), (TRUE,))
    prior = RankedMeasure([run], [INF])
    sys_ = System(vocab, (run,), prior, 1, menu=(TRUE,))
    assert bel(sys_, ()) == frozenset()


# ---------------------------------------------------------------------------
# the step-to-step conditioning rule


def _conditioned_override(sys_, s_a):
    """``sys_`` with the conditioned prior at ``s_a`` supplied as an
    override, so the local rule sweeps the steps into and out of it."""
    override = sys_.plaus_at(s_a)
    return System(
        vocab=sys_.vocab,
        runs=sys_.runs,
        prior=sys_.prior,
        horizon=sys_.horizon,
        menu=sys_.menu,
        point_measures={s_a: override},
    )


def test_local_rule_on_revision_system(revsys):
    sys_ = _conditioned_override(revsys, (P_,))
    assert len(sys_.plaus_at((P_,)).carrier) == 6
    assert check_prior_local_rule(sys_).all_passed


def test_local_rule_on_small_update_system():
    from beliefchange.formulas import world_formula
    from beliefchange.update import hamming_structure, system_from_update

    vocab = Vocabulary(["p"])
    complete = [world_formula(x, vocab) for x in vocab.worlds()]
    sys_ = _conditioned_override(system_from_update(hamming_structure(vocab), 1, complete), ())
    assert len(sys_.plaus_at(()).carrier) == 8
    assert check_prior_local_rule(sys_, budget=4 ** 8).all_passed


def test_local_rule_budget_error(updsys):
    # only a state with an override is swept; <true> has more than 2 points
    sys_ = _conditioned_override(updsys, (TRUE,))
    assert len(sys_.plaus_at((TRUE,)).carrier) > 2
    with pytest.raises(BudgetError, match="LOCAL-RULE: .* subset pairs of the .* points at local state <true>"):
        check_prior_local_rule(sys_, budget=4 ** 2)


def test_local_rule_singleton_run_system():
    run = Run((w("11"), w("11")), (TRUE,))
    sys_ = System(PQ, (run,), RankedMeasure([run], [0]), 1, menu=(TRUE,))
    sys_ = _conditioned_override(sys_, (TRUE,))
    assert len(sys_.plaus_at((TRUE,)).carrier) == 1
    assert check_prior_local_rule(sys_).all_passed


def test_local_rule_catches_inconsistent_override(revsys):
    flipped = {
        run: 2 - min(_rank, 2)
        for run, _rank in ((r, RANKS[r.envs[0]]) for r in revsys.runs)
    }
    s_a = (P_,)
    pts = revsys.points_with_local_state(s_a)
    override = RankedMeasure(pts, [flipped[r] for r, t in pts])
    sys_ = System(
        vocab=revsys.vocab,
        runs=revsys.runs,
        prior=revsys.prior,
        horizon=revsys.horizon,
        menu=revsys.menu,
        point_measures={s_a: override},
    )
    assert not check_prior_local_rule(sys_).all_passed


def test_local_rule_reports_an_override_over_the_wrong_points():
    # an override missing the last point of <p, !q> fails as BCS5 does,
    # before the state's budget check
    scenario = load_scenario(os.path.join(SCENARIOS, "ranked_basic.scn"))
    sys_ = build_system(scenario)
    s_a = (P_, Not(Q_))
    pts = sys_.points_with_local_state(s_a)
    short = RankedMeasure(pts[:-1], [0] * (len(pts) - 1))
    sys_ = System(
        sys_.vocab, sys_.runs, sys_.prior, sys_.horizon,
        universe=sys_.universe, menu=sys_.menu, point_measures={s_a: short},
    )
    assert validate_bcs(sys_)["BCS5"].witness == "carrier mismatch at <p, !q>"
    for budget in (100_000, 0):
        report = check_prior_local_rule(sys_, budget=budget)
        assert report["LOCAL-RULE"].witness == "carrier mismatch at <p, !q>"


def _with_override(sys_, s_a, measure):
    return System(
        sys_.vocab, sys_.runs, sys_.prior, sys_.horizon,
        universe=sys_.universe, menu=sys_.menu, point_measures={s_a: measure},
    )


def test_bcs5_reads_a_reordered_override_through_the_reordering():
    # the points of <p> in reverse order, each with its conditioned rank:
    # the conditioned prior itself, so BCS5 passes as LOCAL-RULE does
    sys_ = build_system(load_scenario(os.path.join(SCENARIOS, "ranked_basic.scn")))
    s_a = (P_,)
    pts = sys_.points_with_local_state(s_a)
    ranks = [sys_.prior.ranks[sys_.prior.index[run]] for run, _ in pts]
    reversed_ = _with_override(sys_, s_a, RankedMeasure(pts[::-1], ranks[::-1]))
    assert validate_bcs(reversed_)["BCS5"].passed
    assert check_prior_local_rule(reversed_)["LOCAL-RULE"].passed
    assert bel(reversed_, s_a) == bel(sys_, s_a)
    # one wrong rank still fails, with the witness masks over the state's
    # points in their own order, listed either way
    wrong = [ranks[0] + 2] + ranks[1:]
    witnesses = [
        validate_bcs(_with_override(sys_, s_a, RankedMeasure(points, rs)))["BCS5"].witness
        for points, rs in ((pts, wrong), (pts[::-1], wrong[::-1]))
    ]
    assert witnesses[0] == witnesses[1]
    assert re.fullmatch(r"measure at <p> is not the conditioned prior \(masks 0x[0-9a-f]+, 0x[0-9a-f]+\)", witnesses[0])


NUMPY_FREE = """
import importlib, pkgutil, sys
import beliefchange
for module in pkgutil.iter_modules(beliefchange.__path__):
    importlib.import_module("beliefchange." + module.name)
from beliefchange.formulas import TRUE, Atom, Not, Vocabulary
from beliefchange.plausibility import RankedMeasure
from beliefchange.revision import system_from_ranking
from beliefchange.systems import System, check_prior_local_rule, validate_bcs
PQ = Vocabulary(["p", "q"])
ranks = {0: 2, 1: 1, 2: 1, 3: 0}
sys_ = system_from_ranking(PQ, ranks, [TRUE, Atom("p"), Atom("q"), Not(Atom("q"))], 2)
pts = sys_.points_with_local_state((Atom("p"),))
override = RankedMeasure(pts, [ranks[r.envs[0]] for r, t in pts])
sys_ = System(PQ, sys_.runs, sys_.prior, 2, menu=sys_.menu, point_measures={(Atom("p"),): override})
assert check_prior_local_rule(sys_).all_passed and validate_bcs(sys_).all_passed
print("numpy" in sys.modules)
"""


def test_checkers_do_not_import_numpy():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# ---------------------------------------------------------------------------
# belief change system validation


def test_validate_bcs_constructed_systems(revsys, updsys):
    assert validate_bcs(revsys).all_passed
    assert validate_bcs(updsys).all_passed


def test_validate_bcs_catches_unreliable_observation(revsys):
    bad_run = Run((w("00"),) * 3, (P_, TRUE))  # observes p where p is false
    sys_ = System(
        vocab=PQ,
        runs=revsys.runs + (bad_run,),
        prior=RankedMeasure(
            revsys.runs + (bad_run,),
            [RANKS[r.envs[0]] for r in revsys.runs + (bad_run,)],
        ),
        horizon=2,
        menu=revsys.menu,
    )
    report = validate_bcs(sys_)
    assert not report["BCS4"].passed
    assert "time 1" in report["BCS4"].witness


def test_validate_bcs_catches_non_conditioning_measure(revsys):
    pts = revsys.points_with_local_state((P_,))
    constant = RankedMeasure(pts, [0 for p in pts])
    sys_ = System(
        vocab=PQ,
        runs=revsys.runs,
        prior=revsys.prior,
        horizon=2,
        menu=revsys.menu,
        point_measures={(P_,): constant},
    )
    report = validate_bcs(sys_)
    assert not report["BCS5"].passed


def test_validate_bcs_reports_an_observation_outside_the_vocabulary(revsys):
    stray = Run((w("11"),) * 3, (Atom("zz"), TRUE))
    runs = revsys.runs + (stray,)
    sys_ = System(
        vocab=PQ,
        runs=runs,
        prior=RankedMeasure(runs, [RANKS[r.envs[0]] for r in runs]),
        horizon=2,
        menu=revsys.menu,
    )
    report = validate_bcs(sys_)
    assert not report["BCS2"].passed
    assert "zz" in report["BCS2"].witness
    assert report["BCS4"].passed


# ---------------------------------------------------------------------------
# BCS3 is decided once per last observation

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "src", "beliefchange", "scenarios")


@pytest.mark.parametrize("name", ["diag_three_gates.scn", "small_update.scn"])
def test_bcs3_model_checks_once_per_last_observation(monkeypatch, name):
    sys_ = build_system(load_scenario(os.path.join(SCENARIOS, name)))
    calls = []

    def counting(*args):
        calls.append(args)
        return model_check(*args)

    monkeypatch.setattr(systems, "model_check", counting)
    report = validate_bcs(sys_)
    assert report["BCS3"].passed
    last_observations = {o for r in sys_.runs for o in r.obs}
    assert 0 < len(calls) <= (len(last_observations) + 1) * (len(sys_.menu) + 1)


def test_bcs3_still_catches_a_learn_atom_true_at_time_zero(monkeypatch, revsys):
    def broken(sys_, point, formula):
        if isinstance(formula, Learn) and formula.observed == TRUE:
            return True
        return model_check(sys_, point, formula)

    monkeypatch.setattr(systems, "model_check", broken)
    assert validate_bcs(revsys)["BCS3"].witness == "learn(true) true at time 0"
