import itertools

import pytest

from beliefchange.formulas import (
    TRUE,
    Atom,
    Not,
    TimestampError,
    Vocabulary,
    timestamp,
)
from beliefchange.plausibility import CustomMeasure, RankedMeasure, extension_representatives
from beliefchange.synthesis import (
    belief_correspondence,
    statify,
    verify_statification,
)
from beliefchange import update
from beliefchange.systems import BudgetError, System, bel
from beliefchange.update import hamming_structure, system_from_update, validate_upd

PQ = Vocabulary(["p", "q"])
P_ = Atom("p")
Q_ = Atom("q")
MENU = (TRUE, P_, Not(Q_))


@pytest.fixture(scope="module")
def upd_sys():
    return system_from_update(hamming_structure(PQ), 2, MENU)


@pytest.fixture(scope="module")
def twin(upd_sys):
    return statify(upd_sys)


def test_statify_timestamps_observations(twin):
    run = next(r for r in twin.source.runs if r.obs == (P_, Not(Q_)))
    star = twin.from_source[run]
    assert star.obs == (Atom("p", 1), timestamp(Not(Q_), 2))


def test_statify_preserves_run_count(twin):
    assert len(twin.inner.runs) == len(twin.source.runs)
    assert len(twin.to_source) == len(twin.inner.runs)


def test_statified_environment_is_static_and_encodes_history(twin):
    vocab_star = twin.inner.vocab
    for star, source in itertools.islice(twin.to_source.items(), 30):
        assert len(set(star.envs)) == 1  # constant along the run
        encoded = star.envs[0]
        for m, world in enumerate(source.envs):
            for name in PQ.props:
                assert vocab_star.truth(encoded, f"{name}@{m}") == PQ.truth(world, name)


def test_statify_rejects_timestamped_vocabulary(twin):
    with pytest.raises(TimestampError):
        statify(twin.inner)


def test_prior_isomorphism_exhaustive_on_small_system():
    vocab = Vocabulary(["p"])
    sys_ = system_from_update(hamming_structure(vocab), 1, [TRUE])
    st = statify(sys_)
    runs_star = list(st.inner.runs)
    n = len(runs_star)
    assert n <= 8
    for mask_a in range(1 << n):
        a_star = frozenset(runs_star[i] for i in range(n) if mask_a >> i & 1)
        a = frozenset(st.to_source[r] for r in a_star)
        for mask_b in range(1 << n):
            b_star = frozenset(runs_star[i] for i in range(n) if mask_b >> i & 1)
            b = frozenset(st.to_source[r] for r in b_star)
            assert st.inner.prior.compare(a_star, b_star) is st.source.prior.compare(a, b)


def test_verification_report(twin):
    report = verify_statification(twin)
    by_name = {r.name: r for r in report}
    assert by_name["BCS"].passed
    assert by_name["REV1"].passed
    assert by_name["UPD3->REV3"].passed
    assert by_name["UPD4->REV4'"].passed
    assert by_name["PRIOR-ISO"].passed
    # a two-origin distance prior is genuinely partial: rankedness fails
    assert not by_name["REV2"].passed and by_name["REV2"].witness
    # off-time observations cannot be made: strong neutrality fails
    assert not by_name["REV4"].passed and "@" in by_name["REV4"].witness



def test_verification_runs_only_the_update_checks_it_reports(twin, monkeypatch):
    calls = []
    check_upd2 = update._check_upd2
    monkeypatch.setattr(update, "_check_upd2", lambda *args: calls.append(1) or check_upd2(*args))
    verify_statification(twin)
    assert calls == []
    validate_upd(twin.source)
    assert calls == [1]  # the counter sees a call that does happen


def test_verification_sweeps_bcs5_at_its_budget():
    # eight runs under a prior with no shortcut: BCS5 sweeps the 4^8 =
    # 65,536 disjoint triples of the twin's prior when the budget covers them
    source = system_from_update(hamming_structure(Vocabulary(["p"])), 1, (TRUE, P_, Not(P_)))
    runs = source.runs
    ranked = RankedMeasure(runs, [run.envs[0] + run.envs[1] for run in runs])
    custom = System(
        source.vocab, runs, CustomMeasure(runs, ranked.compare), 1, menu=source.menu
    )
    assert len(runs) == 8
    report = verify_statification(statify(custom), budget=70_000)
    assert report["BCS"].passed
    with pytest.raises(BudgetError, match="BCS5: 65536 disjoint triples .* budget of 60000"):
        verify_statification(statify(custom), budget=60_000)


def test_belief_correspondence_exhaustive(twin):
    reps = [f for f, _ in extension_representatives(PQ)]
    for run in twin.source.runs:
        for m in range(twin.source.horizon + 1):
            for f in reps:
                assert belief_correspondence(twin, run, m, f), (run, m, str(f))


def test_borrowed_car_time4_belief_corresponds():
    from beliefchange.formulas import parse_formula
    from beliefchange.update import borrowed_car

    sys_, trace = borrowed_car()
    st = statify(sys_)
    obs = trace["observations"]
    run = next(r for r in sys_.runs if r.obs == obs)
    empty_tank = parse_formula("!fuel_tank_full", sys_.vocab)
    assert belief_correspondence(st, run, 4, empty_tank)


def test_statified_beliefs_refine_original(twin):
    """Restricting the twin's belief worlds to current-time atoms recovers
    the original belief extension."""
    vocab_star = twin.inner.vocab
    for seq_len in (0, 1):
        for combo in itertools.product(MENU, repeat=seq_len):
            m = len(combo)
            source_bel = bel(twin.source, tuple(combo))
            star_state = tuple(timestamp(o, i + 1) for i, o in enumerate(combo))
            star_bel = bel(twin.inner, star_state)
            projected = {
                PQ.world_of(
                    {name: vocab_star.truth(w, f"{name}@{m}") for name in PQ.props}
                )
                for w in star_bel
            }
            assert frozenset(projected) == source_bel, [str(f) for f in combo]
