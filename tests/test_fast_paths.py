"""Each fast path against the slow reference it replaces.

UPD4, REV4/REV4' and PRIOR-ISO skip the pairs whose two sides have one
root image; the reference sweeps below compare every pair.  On a ranked
root REV4/REV4' compare ranks read once per probe; the reference compares
the events with ``at_least``.  On ranked and preferential roots PRIOR-ISO
compares only the empty set and one run per image class; the reference
compares every subset pair, so it runs on small twins only.  ``min_u``
reads the structure's table of farther worlds; the reference asks the
distance order directly.
"""
import itertools
import os
import random
from collections import Counter

import pytest

from beliefchange import revision, synthesis, update
from beliefchange.diagnosis import revision_report
from beliefchange.formulas import TRUE, Atom, Not, Vocabulary, seq_str
from beliefchange.plausibility import (
    INF,
    CustomMeasure,
    MappedMeasure,
    Mask,
    Ordering,
    PreferentialMeasure,
    RankedMeasure,
    from_preference,
)
from beliefchange.scenario import build_system, load_scenario
from beliefchange.synthesis import statify, verify_statification
from beliefchange.systems import BudgetError, System, check_budget, runs_with_observations
from beliefchange.update import (
    check_km,
    hamming_structure,
    min_u,
    random_structure,
    system_from_update,
    validate_upd,
)

PQ = Vocabulary(["p", "q"])
PQR = Vocabulary(["p", "q", "r"])
P_ = Atom("p")
Q_ = Atom("q")
MENU = (TRUE, P_, Not(Q_))
SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "src", "beliefchange", "scenarios")


def _scenario_system(name):
    scenario = load_scenario(os.path.join(SCENARIOS, name))
    return scenario, build_system(scenario)


# ---------------------------------------------------------------------------
# reference sweeps: every pair compared


def upd4_reference(sys_, structure, budget):
    menu = list(sys_.menu)
    probes = list(dict.fromkeys(menu))
    prior = sys_.index.prior
    for k in range(min(2, sys_.horizon)):
        instances = [
            (obs, fa, fb)
            for obs in itertools.product(menu, repeat=k)
            for fa in itertools.product(probes, repeat=k + 2)
            for fb in itertools.product(probes, repeat=k + 2)
        ]
        check_budget("UPD4", len(instances), f"instances with {('no', 'one')[k]} observation", budget)
        for obs, fa, fb in instances:
            observed = [update._upd4_event(sys_, f, obs, True) for f in (fa, fb)]
            merely_true = [update._upd4_event(sys_, f, obs, False) for f in (fa, fb)]
            if prior.at_least(*observed) != prior.at_least(*merely_true):
                yield f"formulas {seq_str(fa)} vs {seq_str(fb)} observing {seq_str(obs)}"


def rev4_reference(sys_, probes, obs_sequences, budget):
    vocab, index = sys_.vocab, sys_.index
    prior = index.prior
    obs_sequences = [tuple(seq) for seq in obs_sequences]
    lengths = set()
    for seq in obs_sequences:
        if len(seq) not in lengths:
            lengths.add(len(seq))
            part = sum(len(other) == len(seq) for other in obs_sequences) * len(probes) ** 2
            what = f"probe pairs after {len(seq)}-observation sequences"
            if part > budget:
                raise BudgetError(f"REV4: {part} {what} exceed the budget of {budget}")
        conj_ext = sys_.universe
        for o in seq:
            conj_ext = conj_ext & vocab.extension(o)
        prefix_runs = runs_with_observations(sys_, seq)
        for f, g in itertools.product(probes, repeat=2):
            exts = [vocab.extension(h) for h in (f, g)]
            cond = [Mask(prefix_runs & index.env_event(len(seq), e)) for e in exts]
            conj = [index.env_event(0, e & conj_ext) for e in exts]
            if prior.at_least(*cond) != prior.at_least(*conj):
                yield (
                    f"probes ({f}, {g}) after observing {seq_str(seq)}",
                    not prior.is_bottom(cond[0]),
                )


def prior_iso_reference(st):
    n = len(st.inner.runs)
    position = {run: i for i, run in enumerate(st.source.runs)}
    to_source = [position[st.to_source[run]] for run in st.inner.runs]

    def image(mask):
        return Mask(sum(1 << to_source[i] for i in range(n) if mask >> i & 1))

    star, source = st.inner.index.prior, st.source.index.prior
    for a, b in itertools.product(range(1 << n), repeat=2):
        if star.compare(Mask(a), Mask(b)) is not source.compare(image(a), image(b)):
            yield f"subset pair of sizes {(a.bit_count(), b.bit_count())} compares differently"


def both_ways(monkeypatch, run):
    """The report of ``run()`` with the fast checkers, after asserting the
    UPD4 and REV4/REV4' reference sweeps give the same machine output (the
    PRIOR-ISO reference is too slow for these twins; see
    ``test_prior_iso_reduction_matches_the_subset_sweep``)."""
    fast = run()
    with monkeypatch.context() as m:
        m.setattr(update, "_check_upd4", upd4_reference)
        m.setattr(synthesis, "_check_upd4", upd4_reference)
        m.setattr(revision, "_check_observation_neutrality", rev4_reference)
        slow = run()
    assert fast.to_machine() == slow.to_machine()
    return fast


def with_prior(sys_, prior, runs=None):
    runs = sys_.runs if runs is None else runs
    return System(sys_.vocab, runs, prior, sys_.horizon, universe=sys_.universe, menu=sys_.menu)


def tampered(st):
    """The twin with the bijection's first and last runs swapped; its prior
    still reads the true bijection."""
    runs = st.inner.runs
    st.to_source = dict(st.to_source)
    st.to_source[runs[0]], st.to_source[runs[-1]] = st.to_source[runs[-1]], st.to_source[runs[0]]
    return st


# ---------------------------------------------------------------------------
# differential tests of the three checkers


@pytest.fixture(scope="module", params=[(seed, h) for seed in range(3) for h in (1, 2)],
                ids=lambda p: f"seed{p[0]}-h{p[1]}")
def random_update_system(request):
    seed, horizon = request.param
    return system_from_update(random_structure(PQ, random.Random(seed)), horizon, MENU)


def test_random_update_systems(monkeypatch, random_update_system):
    both_ways(monkeypatch, lambda: validate_upd(random_update_system))
    both_ways(monkeypatch, lambda: revision.validate_rev(random_update_system))


def test_statified_twins(monkeypatch, random_update_system):
    st = statify(random_update_system)
    both_ways(monkeypatch, lambda: verify_statification(st))


def test_tampered_twins(monkeypatch, random_update_system):
    st = tampered(statify(random_update_system))
    both_ways(monkeypatch, lambda: verify_statification(st))


def test_tampered_twin_witness_is_swept(monkeypatch):
    # the swapped runs sit in image classes of their own, so the swap shows
    # between single runs
    st = tampered(statify(system_from_update(hamming_structure(PQ), 1, (TRUE, P_))))
    report = both_ways(monkeypatch, lambda: verify_statification(st))
    assert report["PRIOR-ISO"].witness == "subset pair of sizes (1, 1) compares differently"


def _by_size(runs):
    # more runs, more plausible: observing is informative whenever it
    # drops runs
    def compare(a, b):
        if len(a) == len(b):
            return Ordering.EQUAL
        return Ordering.GREATER if len(a) > len(b) else Ordering.LESS

    return CustomMeasure(runs, compare)


def _reversed_ranks(runs):
    return RankedMeasure(runs, [len(runs) - 1 - i for i, r in enumerate(runs)])


@pytest.mark.parametrize(
    "make_prior, upd4_fails, iso_fails", [(_by_size, True, None), (_reversed_ranks, False, True)]
)
def test_priors_whose_images_differ(monkeypatch, make_prior, upd4_fails, iso_fails):
    # iso_fails None: BCS5 cannot sweep the custom prior's 256 runs
    structure = hamming_structure(PQ)
    source = system_from_update(structure, 2, MENU)
    sys_ = with_prior(source, make_prior(source.runs))
    upd = both_ways(monkeypatch, lambda: validate_upd(sys_, structure=structure))
    assert upd["UPD4"].passed is not upd4_fails
    assert not both_ways(monkeypatch, lambda: revision.validate_rev(sys_))["REV4"].passed
    st = tampered(statify(sys_))
    if iso_fails is None:
        with pytest.raises(BudgetError, match="BCS5: .* disjoint triples of the prior's 256"):
            verify_statification(st)
        return
    # the empty set and 256 single runs: 66,049 pairs
    report = both_ways(monkeypatch, lambda: verify_statification(st, budget=66_049))
    assert report["PRIOR-ISO"].passed is not iso_fails


def _small_prior(kind, runs, rng):
    """A prior of the given kind over the runs, drawn from the rng."""
    n = len(runs)

    def ranks(size):
        return [rng.choice([0, 1, 1, 2, INF]) for _ in range(size)]

    def preference(carrier):
        order = rng.sample(list(carrier), len(carrier))
        return from_preference(carrier, [
            (x, y) for i, x in enumerate(order) for y in order[i + 1:] if rng.random() < 0.4
        ])

    if kind == "ranked":
        return RankedMeasure(runs, ranks(n))
    if kind == "preferential":
        return preference(runs)
    if kind == "mapped-ranked":
        return MappedMeasure(runs, RankedMeasure(range(3), ranks(3)), [rng.randrange(3) for _ in runs])
    if kind == "mapped-preferential":
        return MappedMeasure(runs, preference(range(3)), [rng.randrange(3) for _ in runs])
    weights = {run: rng.randrange(3) for run in runs}  # custom: additive weights

    def compare(a, b):
        va, vb = sum(weights[r] for r in a), sum(weights[r] for r in b)
        return Ordering.EQUAL if va == vb else Ordering.GREATER if va > vb else Ordering.LESS

    return CustomMeasure(runs, compare)


SMALL_KINDS = ["ranked", "preferential", "mapped-ranked", "mapped-preferential", "custom"]


def _rebuilt_from_single_runs(st, mode):
    """A prior on the twin's runs read off how the source prior compares
    their single source runs: ranks counting the runs above each ("ranked"
    keeps the source's bottom runs at infinity, "ranked-no-bottom" ranks
    them last), or the dominance lift of the strictly-above pairs."""
    source = st.source.index.prior
    position = {run: i for i, run in enumerate(st.source.runs)}
    runs = st.inner.runs
    single = {run: Mask(1 << position[st.to_source[run]]) for run in runs}

    def above(x, y):
        return source.compare(single[x], single[y]) is Ordering.GREATER

    if mode != "preferential":
        bottom = INF if mode == "ranked" else len(runs)
        ranks = [
            bottom if source.is_bottom(single[y]) else sum(above(x, y) for x in runs) for y in runs
        ]
        return RankedMeasure(runs, ranks)
    return from_preference(runs, [(x, y) for x in runs for y in runs if above(x, y)])


@pytest.mark.parametrize("kind", SMALL_KINDS)
def test_prior_iso_reduction_matches_the_subset_sweep(kind):
    # twins of 4 and 6 runs with a permuted bijection, whose prior is the
    # source's image, a prior of its own of any kind, or one rebuilt from
    # the source's comparisons of single runs (the last two have a root
    # of their own)
    single = Vocabulary(["p"])
    systems = [system_from_update(hamming_structure(single), 1, menu) for menu in ([TRUE], [TRUE, P_])]
    verdicts = []
    for seed in range(60):
        rng = random.Random(seed)
        source = systems[seed % 2]
        st = statify(with_prior(source, _small_prior(kind, source.runs, rng)))
        runs = list(st.inner.runs)
        st.to_source = dict(zip(runs, rng.sample([st.to_source[r] for r in runs], len(runs))))
        if seed % 3 == 1:
            st.inner = with_prior(st.inner, _small_prior(rng.choice(SMALL_KINDS), runs, rng))
        elif seed % 3 == 2:
            mode = ("ranked", "ranked-no-bottom", "preferential")[seed // 3 % 3]
            st.inner = with_prior(st.inner, _rebuilt_from_single_runs(st, mode))
        fast = next(synthesis._check_prior_isomorphism(st, 10**6), "")
        assert bool(fast) == bool(next(prior_iso_reference(st), "")), seed
        verdicts.append((seed % 3, not fast))
    assert len(set(verdicts)) >= 4, verdicts


def test_diagnosis_revision_report(monkeypatch):
    scenario, sys_ = _scenario_system("diag_three_gates.scn")
    both_ways(monkeypatch, lambda: revision_report(sys_, scenario.circuit))


@pytest.fixture(scope="module")
def no_p_at_11():
    # observing p never happens at world 11, so observing it is informative
    structure = hamming_structure(PQ)
    full = system_from_update(structure, 2, MENU)
    w11 = PQ.world_from_str("11")
    runs = tuple(r for r in full.runs if not (r.envs[1] == w11 and r.obs[0] == P_))
    return with_prior(full, update.LexPrior(runs, structure), runs)


@pytest.mark.parametrize("budget", [10, 30, 50, 400])
def test_upd4_at_sampled_budgets(no_p_at_11, budget):
    # budgets the sweep once sampled under: the fast and reference UPD4
    # sweeps now raise at the same part, the first one past the budget
    structure = update._structure_of(no_p_at_11, None)
    part = "81 instances with no observation" if budget < 81 else "2187 instances with one observation"
    errors = []
    for check in (update._check_upd4, upd4_reference):
        with pytest.raises(BudgetError, match=f"UPD4: {part} exceed the budget of {budget}") as raised:
            list(check(no_p_at_11, structure, budget))
        errors.append(str(raised.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("budget", [2186, 2187])
def test_upd4_budget_boundary(monkeypatch, no_p_at_11, budget):
    # UPD4's part with one observation holds 2,187 instances; the witness
    # is in it, so one less raises before the witness is reached
    if budget == 2186:
        for check in (update._check_upd4, upd4_reference):
            monkeypatch.setattr(update, "_check_upd4", check)
            with pytest.raises(BudgetError, match="UPD4: 2187 instances with one observation"):
                validate_upd(no_p_at_11, budget=budget)
    else:
        report = both_ways(monkeypatch, lambda: validate_upd(no_p_at_11, budget=budget))
        assert not report["UPD4"].passed


@pytest.mark.parametrize("budget", [323, 324])
def test_rev4_budget_counts_skipped_pairs(monkeypatch, budget):
    # on this twin the nine two-observation sequences by 6 probes make the
    # largest part, 324 pairs, most of which the fast path skips; the first
    # mismatch comes after them
    _, sys_ = _scenario_system("small_update.scn")
    st = statify(sys_)
    probes, seqs = synthesis._star_probes(st), synthesis._timed_obs_sequences(st, 2)
    run = lambda: revision.validate_rev(st.inner, probes, seqs, budget=budget)
    if budget == 323:
        for check in (revision._check_observation_neutrality, rev4_reference):
            monkeypatch.setattr(revision, "_check_observation_neutrality", check)
            with pytest.raises(BudgetError, match="REV4: 324 probe pairs after 2-observation"):
                run()
    else:
        report = both_ways(monkeypatch, run)
        assert report["REV4"].witness == "probes (false, true) after observing <p@2>"


# ---------------------------------------------------------------------------
# the saved work


@pytest.fixture()
def root_compares(monkeypatch):
    """Counts the root measure's comparisons on an update system."""
    calls = []
    original = PreferentialMeasure._compare

    def counted(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(PreferentialMeasure, "_compare", counted)
    return calls


def test_small_update_upd4_and_prior_iso_compare_nothing(root_compares):
    _, sys_ = _scenario_system("small_update.scn")
    witnesses = list(update._check_upd4(sys_, sys_.prior.structure, 4000))
    assert witnesses == [] and root_compares == []
    assert list(synthesis._check_prior_isomorphism(statify(sys_), 60_000)) == []
    assert root_compares == []


def test_small_update_twin_rev4_compares_less(root_compares):
    _, sys_ = _scenario_system("small_update.scn")
    st = statify(sys_)
    args = (st.inner, synthesis._star_probes(st), synthesis._timed_obs_sequences(st, 2), 60_000)
    fast = list(revision._check_observation_neutrality(*args))
    fast_calls = len(root_compares)
    root_compares.clear()
    assert list(rev4_reference(*args)) == fast
    assert fast_calls < len(root_compares)


# ---------------------------------------------------------------------------
# min_u against the distance order


def min_u_reference(structure, origins, candidates):
    closer = structure.closer
    return frozenset(
        w for w in candidates
        if any(not any(closer(o, v, w) for v in candidates) for o in origins)
    )


def _subsets(worlds):
    return [
        frozenset(c) for k in range(len(worlds) + 1) for c in itertools.combinations(worlds, k)
    ]


@pytest.mark.parametrize(
    "structure",
    [hamming_structure(PQR)] + [random_structure(PQ, random.Random(seed)) for seed in range(20)],
    ids=["hamming-pqr"] + [f"random-pq-{seed}" for seed in range(20)],
)
def test_min_u_matches_the_closer_loop(structure):
    subsets = _subsets(structure.worlds)
    for origins, candidates in itertools.product(subsets, repeat=2):
        assert min_u(structure, origins, candidates) == min_u_reference(structure, origins, candidates)


@pytest.mark.parametrize("seed", range(20))
def test_check_km_unchanged_by_the_table(seed):
    structure = random_structure(PQ, random.Random(seed))
    report = check_km(update.update_operator(structure), structure.worlds, PQ)
    reference = check_km(
        lambda belief, observed: min_u_reference(structure, belief, observed), structure.worlds, PQ
    )
    assert report.to_machine() == reference.to_machine()


# ---------------------------------------------------------------------------
# REV4/REV4' on a ranked root: ranks read once, the same full sweep


def _ranked_sweeps():
    """(system, probes, observation sequences) whose prior has a ranked root."""
    _, ranked = _scenario_system("ranked_basic.scn")
    probes = revision._default_probes(ranked)
    seqs = revision._default_obs_sequences(ranked, 2)
    cases = {"ranked_basic": (ranked, probes, seqs)}
    runs = ranked.runs
    for seed in range(4):
        rng = random.Random(seed)
        ranks = [rng.choice([0, 1, 2, 3, INF]) for _ in runs]
        cases[f"seeded-{seed}"] = (with_prior(ranked, RankedMeasure(runs, ranks)), probes, seqs)
        # a mapped prior onto five ranked cells, one of them unreachable
        cells = RankedMeasure(range(5), [rng.choice([0, 1, 2]) for _ in range(4)] + [INF])
        mapped = MappedMeasure(runs, cells, [rng.randrange(5) for _ in runs])
        cases[f"mapped-{seed}"] = (with_prior(ranked, mapped), probes, seqs)
    scenario, diag_sys = _scenario_system("diag_three_gates.scn")
    fault_probes = [(Atom(f"f_{g.gid}"),) for g in scenario.circuit.gates]
    cases["diag_three_gates"] = (
        diag_sys,
        revision._default_probes(diag_sys),
        revision._default_obs_sequences(diag_sys, 1) + fault_probes,
    )
    return cases


RANKED_SWEEPS = _ranked_sweeps()


@pytest.mark.parametrize("name", sorted(RANKED_SWEEPS))
def test_ranked_rev4_yields_the_generic_sweep(name):
    sys_, probes, seqs = RANKED_SWEEPS[name]
    largest = max(Counter(map(len, seqs)).values()) * len(probes) ** 2
    # whole, then one pair short of the largest part, and almost nothing
    for budget in (largest, largest - 1, 1, 0):
        outcomes = []
        for sweep in (revision._check_observation_neutrality, rev4_reference):
            try:
                outcomes.append(list(sweep(sys_, probes, seqs, budget)))
            except BudgetError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], list) is (budget == largest)


def test_diagnosis_rev4_fails_on_fault_probes():
    # REV4 fails, on readings and on the unobservable fault literals;
    # REV4' holds, for no mismatch has a positive conditional side
    sys_, probes, seqs = RANKED_SWEEPS["diag_three_gates"]
    sweep = list(revision._check_observation_neutrality(sys_, probes, seqs, 100_000))
    assert any("after observing <f_" in tag for tag, _ in sweep)
    assert sweep and not any(positive for _, positive in sweep)


def test_ranked_rev4_compares_no_events(monkeypatch):
    sys_, probes, seqs = RANKED_SWEEPS["seeded-0"]
    calls = []
    original = RankedMeasure._compare

    def counted(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(RankedMeasure, "_compare", counted)
    sweep = list(revision._check_observation_neutrality(sys_, probes, seqs, 100_000))
    # only each witness's bottom test compares
    assert sweep and len(calls) == len(sweep)
