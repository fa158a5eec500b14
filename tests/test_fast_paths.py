"""Each fast path against the slow reference it replaces.

UPD4, REV4/REV4', PRIOR-ISO, BCS5's override check and LOCAL-RULE search
through ``disagreements``: it skips the pairs whose two sides have one
root image and, on a ranked root, compares ranks read once per entry.
It is checked against the literal row-major sweep, and the reference
checkers below compare every pair of events.  UPD2
skips the cells with different first worlds when the initial-world
blocks are closed; its reference compares every pair of cells and reads
the cell-dominance criterion off ``prec`` for every pair of cells.  On
ranked and preferential roots PRIOR-ISO compares only the empty set and
one run per image class; the reference compares every subset pair, so it
runs on small twins only.  ``min_u`` reads the structure's table of
farther worlds; the reference asks the distance order directly.
``minimal_prefix_cells`` asks ``prec`` only within a candidate's
first-world block; the reference scans every cell.  ``believed`` reads
the time's frame (``RunIndex.frame``), the prior's root when the worlds'
root images are disjoint; the reference compares run masks through the
prior, world by world.  UPD4 decides an observation whose observed and
merely-true runs are one mask in its frame; the reference builds and
compares every event pair on run masks.  Every frame's events are also
checked against a scan of the runs.  A mapped
measure sends a dense mask to its root by a scan of each position's
preimage; the reference walks every bit.
"""
import functools
import gc
import itertools
import os
import random
import time
import weakref
from collections import Counter

import pytest

from beliefchange import plausibility, revision, synthesis, update
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
    bits,
    disagreements,
    from_preference,
    mask_of,
    root_of,
    union,
)
from beliefchange.scenario import build_system, load_scenario, load_scenario_text
from beliefchange.synthesis import statify, verify_statification
from beliefchange.systems import (
    BudgetError,
    System,
    _conditioned_prior,
    _not_disbelieved,
    bel,
    believed,
    check_budget,
    runs_with_observations,
)
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
# reference sweeps: every pair compared, on run masks

RUN_EVENTS = None  # the conftest's run-mask events, set for each test


@pytest.fixture(autouse=True)
def _run_events(run_events):
    global RUN_EVENTS
    RUN_EVENTS = run_events


def prefix_dominance_reference(structure, sa, sb):
    order = update.LexRunOrder(structure)
    n = len(sa)
    exts_a = [structure.extension(f) for f in sa]
    exts_b = [structure.extension(f) for f in sb]
    cells = list(itertools.product(structure.worlds, repeat=n))
    cells_a = [c for c in cells if all(c[i] in exts_a[i] for i in range(n))]
    cells_b = [
        c
        for c in cells
        if all(c[i] in exts_b[i] for i in range(n))
        and not all(c[i] in exts_a[i] for i in range(n))
    ]
    # literal prefix-cell criterion: every cell left over on the other side
    # is strictly beaten by some cell of this side
    for cb in cells_b:
        if not any(order.prec(ca, cb) for ca in cells_a):
            return False
    return True


def upd2_reference(sys_, structure, budget):
    order = update.LexRunOrder(structure)
    index = sys_.index
    prior = index.prior
    for n in range(2, min(sys_.horizon + 1, 3) + 1):
        cells = list(itertools.product(structure.worlds, repeat=n))
        check_budget("UPD2", len(cells) * (len(cells) - 1) // 2, f"pairs of length-{n} cells", budget)
        groups = {cell: RUN_EVENTS.cell_event(index, cell) for cell in cells}
        for ca, cb in itertools.combinations(cells, 2):
            runs_a, runs_b = groups[ca], groups[cb]
            if not runs_a or not runs_b:
                continue
            got = prior.compare(runs_a, runs_b)
            lt = order.prec(cb, ca)
            gt = order.prec(ca, cb)
            if lt and got is not Ordering.LESS:
                yield f"cells {ca} vs {cb}: expected strictly below, got {got.value}"
            elif gt and got is not Ordering.GREATER:
                yield f"cells {ca} vs {cb}: expected strictly above, got {got.value}"
            elif not lt and not gt and got in (Ordering.LESS, Ordering.GREATER):
                yield f"cells {ca} vs {cb}: unexpected strict comparison {got.value}"
    menu = list(sys_.menu)
    seqs = [seq for k in (1, 2) for seq in itertools.product(menu, repeat=k) if k <= sys_.horizon + 1]
    check_budget("UPD2", len(seqs) ** 2, "pairs of menu sequences", budget)
    for sa, sb in itertools.product(seqs, repeat=2):
        if len(sa) != len(sb):
            continue
        events = [RUN_EVENTS.formula_prefix_event(sys_, seq) for seq in (sa, sb)]
        got = prior.at_least(*events)
        want = prefix_dominance_reference(structure, sa, sb)
        if got != want:
            yield f"events {seq_str(sa)} vs {seq_str(sb)}: measure {got}, cells {want}"


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
            observed = [RUN_EVENTS.upd4_event(sys_, f, obs, True) for f in (fa, fb)]
            merely_true = [RUN_EVENTS.upd4_event(sys_, f, obs, False) for f in (fa, fb)]
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
    UPD2, UPD4 and REV4/REV4' reference sweeps give the same machine output
    (the PRIOR-ISO reference is too slow for these twins; see
    ``test_prior_iso_reduction_matches_the_subset_sweep``)."""
    fast = run()
    with monkeypatch.context() as m:
        m.setattr(update, "_check_upd2", upd2_reference)
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


def _no_p_at_11():
    # observing p never happens at world 11, so observing it is informative
    structure = hamming_structure(PQ)
    full = system_from_update(structure, 2, MENU)
    w11 = PQ.world_from_str("11")
    runs = tuple(r for r in full.runs if not (r.envs[1] == w11 and r.obs[0] == P_))
    return with_prior(full, update.LexPrior(runs, structure), runs)


@pytest.fixture(scope="module")
def no_p_at_11():
    return _no_p_at_11()


@pytest.mark.parametrize("budget", [10, 30, 50, 400])
def test_upd4_at_sampled_budgets(no_p_at_11, budget):
    # budgets the sweep once sampled under: with no observation the two
    # events are one mask, so the first part past the budget is the one
    # with one observation, which observing p takes; the reference sweeps
    # both parts and raises at the same one once the first fits
    structure = update._structure_of(no_p_at_11, None)
    message = f"^UPD4: 2187 instances with one observation exceed the budget of {budget}$"
    checks = (update._check_upd4, upd4_reference) if budget >= 81 else (update._check_upd4,)
    for check in checks:
        with pytest.raises(BudgetError, match=message):
            list(check(no_p_at_11, structure, budget))


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
# the shared search against the literal row-major sweep


def disagreements_reference(left, left_masks, right, right_masks, relation):
    n = len(left_masks)
    return (
        (a, b)
        for a, b in itertools.product(range(n), repeat=2)
        if relation(left.compare(Mask(left_masks[a]), Mask(left_masks[b])))
        != relation(right.compare(Mask(right_masks[a]), Mask(right_masks[b])))
    )


def _root(kind, size, rng):
    """A root measure of one kind over ``range(size)``."""
    if kind == "ranked":
        return RankedMeasure(range(size), [rng.choice([0, 1, 1, 2, INF]) for _ in range(size)])
    if kind == "preference":
        order = rng.sample(range(size), size)
        return from_preference(range(size), [
            (x, y) for i, x in enumerate(order) for y in order[i + 1:] if rng.random() < 0.4
        ])
    weights = [rng.randrange(3) for _ in range(size)]  # custom: additive weights

    def compare(a, b):
        va, vb = sum(weights[x] for x in a), sum(weights[x] for x in b)
        return Ordering.EQUAL if va == vb else Ordering.GREATER if va > vb else Ordering.LESS

    return CustomMeasure(range(size), compare)


ROOT_KINDS = ["ranked", "preference", "custom"]


def _measure_pair(kind, rng):
    """Two measures over ``range(6)``: roots of one kind (one root shared,
    or two), or mapped chains onto one shared root (the right side a chain
    of two with the left side's image) or onto two roots."""
    if kind in ROOT_KINDS:
        left = _root(kind, 6, rng)
        return left, left if rng.random() < 0.5 else _root(kind, 6, rng)
    image = [rng.randrange(4) for _ in range(6)]
    if kind == "mapped-shared":
        root = _root(rng.choice(ROOT_KINDS), 4, rng)
        perm = rng.sample(range(6), 6)
        middle = MappedMeasure(range(6), root, [image[perm.index(j)] for j in range(6)])
        return MappedMeasure(range(6), root, image), MappedMeasure(range(6), middle, perm)
    roots = [_root(rng.choice(ROOT_KINDS), 4, rng) for _ in range(2)]
    return MappedMeasure(range(6), roots[0], image), MappedMeasure(range(6), roots[1], image)


def _neutral(left, left_masks, right, right_masks):
    """How many entries have one root image on a shared root."""
    if root_of(left)[0] is not root_of(right)[0]:
        return None
    return sum(left.root_mask(a) == right.root_mask(b) for a, b in zip(left_masks, right_masks))


@pytest.mark.parametrize("kind", ROOT_KINDS + ["mapped-shared", "mapped-two-roots"])
def test_disagreements_match_the_literal_sweep(kind):
    relations = [lambda order: order, Ordering.at_least, Ordering.at_most]
    neutral, found = set(), set()
    for seed in range(40):
        rng = random.Random(seed)
        left, right = _measure_pair(kind, rng)
        left_masks = [0, 63] + [rng.randrange(64) for _ in range(6)]
        # entries kept on both sides (all neutral on a shared root), redrawn
        # on the right (mostly none neutral), or both
        for keep in (1.0, 0.0, 0.5):
            right_masks = [k if rng.random() < keep else rng.randrange(64) for k in left_masks]
            count = _neutral(left, left_masks, right, right_masks)
            if count is not None:
                neutral.add("all" if count == len(left_masks) else "mixed" if count else "none")
            for relation in relations:
                want = list(disagreements_reference(left, left_masks, right, right_masks, relation))
                assert list(disagreements(left, left_masks, right, right_masks, relation)) == want
                found.add(bool(want))
    assert found == {False, True}
    assert neutral == (set() if kind == "mapped-two-roots" else {"all", "mixed", "none"})


# ---------------------------------------------------------------------------
# the saved work


def counted_compares(monkeypatch, kind, measure=None):
    """The list each ``kind._compare`` call appends its two masks to; only
    the calls on ``measure``, when one is given."""
    calls = []
    original = kind._compare

    def counted(self, a, b):
        if measure is None or self is measure:
            calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(kind, "_compare", counted)
    return calls


@pytest.fixture()
def root_compares(monkeypatch):
    """Counts the root measure's comparisons on an update system."""
    return counted_compares(monkeypatch, PreferentialMeasure)


def test_small_update_upd4_and_prior_iso_compare_nothing(root_compares):
    _, sys_ = _scenario_system("small_update.scn")
    witnesses = list(update._check_upd4(sys_, sys_.prior.structure, 4000))
    assert witnesses == [] and root_compares == []
    assert list(synthesis._check_prior_isomorphism(statify(sys_), 60_000)) == []
    assert root_compares == []


def test_tampered_small_update_prior_iso_compares_less(root_compares):
    # only the classes of the two swapped runs are live: the witness comes
    # after 10 root compares, where the sweep over every pair of the
    # empty set and one run per class makes 140
    _, sys_ = _scenario_system("small_update.scn")
    st = tampered(statify(sys_))
    witness = "subset pair of sizes (1, 1) compares differently"
    assert next(synthesis._check_prior_isomorphism(st, 60_000)) == witness
    assert len(root_compares) == 10
    root_compares.clear()
    star, source = st.inner.index.prior, st.source.index.prior
    position = {run: i for i, run in enumerate(st.source.runs)}
    sources = [1 << position[st.to_source[run]] for run in st.inner.runs]
    first = {}
    for i, k in enumerate(sources):
        first.setdefault((star.root_mask(1 << i), source.root_mask(k)), i)
    kept = list(first.values())
    masks, images = [0] + [1 << i for i in kept], [0] + [sources[i] for i in kept]
    a, b = next(disagreements_reference(star, masks, source, images, lambda order: order))
    assert (masks[a].bit_count(), masks[b].bit_count()) == (1, 1)
    assert len(root_compares) == 140


def test_small_update_twin_rev4_compares_less(root_compares):
    _, sys_ = _scenario_system("small_update.scn")
    st = statify(sys_)
    args = (st.inner, synthesis._star_probes(st), synthesis._timed_obs_sequences(st, 2), 60_000)
    fast = list(revision._check_observation_neutrality(*args))
    fast_calls = len(root_compares)
    root_compares.clear()
    assert list(rev4_reference(*args)) == fast
    assert fast_calls < len(root_compares)


def test_small_update_upd2_compares_within_initial_world_blocks(monkeypatch):
    # the prior's root compares 24 same-block pairs of length-2 cells and
    # 90 sequence pairs, against every one of the 120 + 2,016 cell pairs;
    # the length-3 cells, one root position each, are decided by rows; the
    # cell order the sequence pairs are checked against compares its own 90
    _, sys_ = _scenario_system("small_update.scn")
    structure = sys_.prior.structure
    root_compares = counted_compares(monkeypatch, PreferentialMeasure, root_of(sys_.index.prior)[0])
    assert update._blocks_closed(sys_.index)
    assert list(update._check_upd2(sys_, structure, 2016)) == []
    assert len(root_compares) == 114
    root_compares.clear()
    assert list(upd2_reference(sys_, structure, 2016)) == []
    assert len(root_compares) == 2226


def test_upd2_rows_across_initial_worlds_take_the_full_sweep(monkeypatch):
    # the lexicographic rows plus one run from 00 beating every run from
    # 11: the first witness is a pair of cells with different first worlds
    structure = hamming_structure(PQ)
    source = system_from_update(structure, 2, MENU)
    cells = sorted({run.envs for run in source.runs})
    lex = update.LexPrior(source.runs, structure).base
    w00, w11 = PQ.world_from_str("00"), PQ.world_from_str("11")
    pairs = [(c, cells[j]) for c, row in zip(lex.carrier, lex.rows) for j in bits(row)]
    pairs += [((w00,) * 3, c) for c in cells if c[0] == w11]
    root = from_preference(cells, pairs)
    sys_ = with_prior(source, MappedMeasure(source.runs, root, [cells.index(r.envs) for r in source.runs]))
    assert not update._blocks_closed(sys_.index)
    report = both_ways(monkeypatch, lambda: validate_upd(sys_, structure=structure))
    assert report["UPD2"].witness == "cells (0, 0) vs (3, 0): unexpected strict comparison >"


def lex_with_root(rows=None, swapped=()):
    """The horizon-2 Hamming update system over p q under its lexicographic
    root, with ``rows`` in place of the root's rows and the cells of each
    swapped pair mapped to each other's root position."""
    source = system_from_update(hamming_structure(PQ), 2, MENU)
    root, image = root_of(source.prior)
    position = list(range(len(root.carrier)))
    for a, b in swapped:
        position[a], position[b] = b, a
    root = PreferentialMeasure(root.carrier, root.rows if rows is None else rows)
    return with_prior(source, MappedMeasure(source.runs, root, [position[k] for k in image]))


def _rows_cut_at_time_2():
    """The lexicographic root's rows without the relations between cells
    whose first divergence is at time 2."""
    root = root_of(system_from_update(hamming_structure(PQ), 2, MENU).prior)[0]
    cells = root.carrier

    def divergence(a, b):
        return next(t for t, (x, y) in enumerate(zip(a, b)) if x != y)

    return [
        mask_of(j for j in bits(row) if divergence(cells[i], cells[j]) < 2)
        for i, row in enumerate(root.rows)
    ]


def _mutual_rows():
    """The lexicographic root's rows, with cell (0, 0, 1) beating (0, 0, 0)
    back."""
    rows = list(root_of(system_from_update(hamming_structure(PQ), 2, MENU).prior)[0].rows)
    rows[1] |= 1
    return rows


UPD2_ROOTS = {
    "lex": (lex_with_root, None),
    "swapped-cells": (
        lambda: lex_with_root(swapped=[(0, 1)]),
        "cells (0, 0, 0) vs (0, 0, 1): expected strictly above, got <",
    ),
    "mutual-pair": (
        lambda: lex_with_root(_mutual_rows()),
        "cells (0, 0, 0) vs (0, 0, 1): expected strictly above, got <>",
    ),
    "cut-at-time-2": (
        lambda: lex_with_root(_rows_cut_at_time_2()),
        "cells (0, 0, 0) vs (0, 0, 1): expected strictly above, got <>",
    ),
}


@pytest.mark.parametrize("name", sorted(UPD2_ROOTS))
def test_upd2_rows_give_the_reference_witnesses(monkeypatch, name):
    # the length-2 cells hold four root positions each and are swept; the
    # length-3 cells are one position each, so their rows are compared,
    # and a row that disagrees runs the pairwise sweep
    make, first = UPD2_ROOTS[name]
    sys_, structure = make(), hamming_structure(PQ)
    assert update._blocks_closed(sys_.index)
    decided, rows_agree = [], update._rows_agree
    monkeypatch.setattr(update, "_rows_agree", lambda *args: decided.append(rows_agree(*args)) or decided[-1])
    witnesses = list(update._check_upd2(sys_, structure, 2016))
    assert decided == [False, name == "lex"]
    assert witnesses == list(upd2_reference(sys_, structure, 2016))
    assert witnesses[:1] == ([first] if first else [])


def built_upd4_events(monkeypatch, sys_):
    """``(events, swept)``: the lists UPD4's event builds append to.  Each
    formula-sequence event it builds (a ``_prefix_event`` call) appends to
    ``events``, and each observation it sweeps (a ``disagreements`` call
    on that observation's observed and merely-true events) appends the
    observation to ``swept``, named by the union of its observed events:
    the menus here hold true, so that union is the frame's runs that
    observed it."""
    events, swept = [], []
    prefix_event, search = update._prefix_event, update.disagreements

    def sweep(left, left_masks, *args):
        frame = sys_.index.frame((0, 1, 2))
        swept.append(next((o,) for o in sys_.menu if frame.observed((o,)) == union(left_masks)))
        return search(left, left_masks, *args)

    monkeypatch.setattr(update, "_prefix_event", lambda *args: events.append(args) or prefix_event(*args))
    monkeypatch.setattr(update, "disagreements", sweep)
    return events, swept


def test_upd4_compares_nothing_for_an_observation_with_no_live_sequence(monkeypatch, no_p_at_11):
    # only observing p is informative there: the other observations are
    # decided in the frame, with no event built, and the part's budget is
    # checked before observing p is swept
    structure = no_p_at_11.prior.structure
    reference = list(upd4_reference(no_p_at_11, structure, 2187))
    (events, swept), compared = built_upd4_events(monkeypatch, no_p_at_11), []
    compare = PreferentialMeasure._compare
    monkeypatch.setattr(
        PreferentialMeasure, "_compare", lambda *args: compared.append(swept[-1]) or compare(*args)
    )
    with pytest.raises(BudgetError, match="^UPD4: 2187 instances with one observation exceed the budget of 2186$"):
        list(update._check_upd4(no_p_at_11, structure, 2186))
    assert events == [] and swept == [] and compared == []
    assert list(update._check_upd4(no_p_at_11, structure, 2187)) == reference != []
    assert swept == [(P_,)] and len(events) == 27  # one per formula sequence
    assert compared and set(compared) == {(P_,)}


def ranked_on_two_times(sys_):
    """``sys_`` ranked on its worlds at times 0 and 1, with 11 at time 1
    first: a root whose world blocks at time 2 meet."""
    w = {name: PQ.world_from_str(name) for name in ("00", "10", "11")}
    ranks = [
        0 if w1 == w["11"] else 1 if (w0, w1) == (w["00"], w["10"]) else 2
        for w0 in range(4) for w1 in range(4)
    ]
    root = RankedMeasure(range(16), ranks)
    runs = sys_.runs
    return with_prior(sys_, MappedMeasure(runs, root, [4 * r.envs[0] + r.envs[1] for r in runs]), runs)


def test_upd4_finds_every_witness_of_the_reference(monkeypatch, no_p_at_11):
    # pairs whose second sequence is not live fail too, after the first
    # witness
    structure = no_p_at_11.prior.structure
    sys_ = ranked_on_two_times(no_p_at_11)
    with monkeypatch.context() as m:
        calls = counted_compares(m, RankedMeasure)
        witnesses = list(update._check_upd4(sys_, structure, 2187))
    assert calls == []  # ranks are read once per event
    assert len(witnesses) == 234 and witnesses == list(upd4_reference(sys_, structure, 2187))


def tampered_lex(sys_):
    """``sys_`` under its lexicographic root with the first and last runs'
    cells swapped: a root whose world blocks meet at every time."""
    root, image = root_of(sys_.prior)
    image = list(image)
    image[0], image[-1] = image[-1], image[0]
    return with_prior(sys_, MappedMeasure(sys_.runs, root, image))


def _upd4_systems():
    """System name -> (a call that makes it, its structure, the
    observations UPD4 sweeps)."""
    out = {}
    for vocab, horizons, seeds in ((PQ, (1, 2, 3), range(3)), (PQR, (2,), range(2))):
        named = {"hamming": hamming_structure(vocab)}
        named.update((f"random-{seed}", random_structure(vocab, random.Random(seed))) for seed in seeds)
        for (name, structure), horizon in itertools.product(named.items(), horizons):
            make = functools.partial(system_from_update, structure, horizon, MENU)
            out[f"{'pq' if vocab is PQ else 'pqr'}-{name}-h{horizon}"] = (make, structure, [])
    hamming, every = hamming_structure(PQ), [(o,) for o in MENU]
    out["no_p_at_11"] = (_no_p_at_11, hamming, [(P_,)])
    out["ranked-on-two-times"] = (lambda: ranked_on_two_times(_no_p_at_11()), hamming, every)
    out["tampered-lex"] = (lambda: tampered_lex(system_from_update(hamming, 2, MENU)), hamming, every)
    return out


UPD4_SYSTEMS = _upd4_systems()


@pytest.mark.parametrize("name", sorted(UPD4_SYSTEMS))
def test_upd4_reduction_matches_the_full_sweep(monkeypatch, name):
    make, structure, expected = UPD4_SYSTEMS[name]
    sys_ = make()
    if expected == [(o,) for o in MENU]:  # a root whose world blocks meet
        assert any(sys_.index.root_blocks(t) is None for t in range(3))
    with monkeypatch.context() as m:
        events, swept = built_upd4_events(m, sys_)
        witnesses = list(update._check_upd4(sys_, structure, 10**6))
    assert witnesses == list(upd4_reference(sys_, structure, 10**6))
    assert list(dict.fromkeys(swept)) == expected
    assert len(events) == (27 if expected else 0)  # one per formula sequence, built once
    if not expected:  # no part is swept, so none is past any budget
        assert list(update._check_upd4(sys_, structure, 0)) == []


def test_upd4_decides_on_the_runs_an_observation_every_run_makes():
    # with the menu true alone, every run observes true at time 1, where it
    # is true: its observed and merely-true runs are one mask on the runs,
    # so nothing is swept and no budget is asked for
    structure = hamming_structure(PQ)
    sys_ = ranked_on_two_times(system_from_update(structure, 2, []))
    assert sys_.index.frame((0, 1, 2)).worlds(2) is sys_.index.at[2]  # the runs
    assert list(update._check_upd4(sys_, structure, 0)) == []
    assert list(update._check_upd4(sys_, structure, 10**6)) == []
    assert list(upd4_reference(sys_, structure, 10**6)) == []


# ---------------------------------------------------------------------------
# the index's frames against frame.send of a run-by-run scan


def on_runs(frame, index, t):
    """Whether ``frame`` reads time ``t`` on the runs: its world masks there
    are the index's own row."""
    return frame.worlds(t) is index.at[t]


def check_frames(sys_, rng):
    """Assert that every event a frame builds equals ``frame.send`` of a
    scan of the runs, and of the run mask the index or the reference
    sweeps build: world masks and environment events at each time,
    observed prefixes, REV4's conditional events, and UPD2's cells and
    menu-sequence events.  Returns, per time, whether that time's frame
    reads it on the runs."""
    index, runs = sys_.index, sys_.runs
    times = range(sys_.horizon + 1)
    column = [[run.envs[t] for run in runs] for t in times]

    def scan(holds):
        return mask_of(i for i, run in enumerate(runs) if holds(i, run))

    prefixes = rng.sample(list(index.prefix), min(8, len(index.prefix)))
    prefixes += [tuple(sys_.menu[-1:]) * (sys_.horizon + 1), (TRUE,) * 2 + tuple(sys_.menu[-1:])]
    for t in times:
        frame = index.frame((t,))
        send = frame.send
        assert frame is index.frame((t,))  # kept per tuple of times
        worlds = sorted(index.at[t])
        assert frame.worlds(t) == {w: send(scan(lambda i, _: column[t][i] == w)) for w in worlds}
        exts = [frozenset(), frozenset(worlds), frozenset(sys_.universe)]
        exts += [frozenset(rng.sample(worlds, rng.randrange(len(worlds) + 1))) for _ in range(6)]
        for ext in exts:
            want = send(scan(lambda i, _: column[t][i] in ext))
            assert frame.env(t, ext) == want == send(index.env_event(t, ext)), (t, ext)
        for s_a in prefixes:
            observed = scan(lambda _, run: len(s_a) <= sys_.horizon and run.obs[: len(s_a)] == s_a)
            assert frame.observed(s_a) == send(observed) == send(index.observed(s_a)), s_a
            for ext in exts[:5]:
                event = index.observed(s_a) & index.env_event(t, ext)
                assert frame.observed(s_a) & frame.env(t, ext) == send(event), (s_a, t)
    length = min(sys_.horizon + 1, 3)
    frame = index.frame(tuple(range(length)))
    send = frame.send
    if len(index.at[0]) <= 8:
        for n in range(2, length + 1):
            for cell in itertools.product(sorted(sys_.universe), repeat=n):
                event = update._prefix_event(frame, [frozenset((w,)) for w in cell])
                want = scan(lambda i, _: all(column[t][i] == w for t, w in enumerate(cell)))
                assert event == send(want) == send(RUN_EVENTS.cell_event(index, cell)), cell
    for k in range(1, min(length, 2) + 1):
        for seq in itertools.product(sys_.menu, repeat=k):
            exts = [sys_.vocab.extension(f) for f in seq]
            event = update._prefix_event(frame, exts)
            want = scan(lambda i, _: all(column[t][i] in ext for t, ext in enumerate(exts)))
            assert event == send(want) == send(RUN_EVENTS.formula_prefix_event(sys_, seq)), seq
    return [on_runs(index.frame((t,)), index, t) for t in times]


def _frame_systems():
    """System name -> (a call that makes it, given the ``seeded_update``
    fixture; the times its frames read on the runs): the seeded update
    systems of the index tests, over p q and p q r, two statified twins, a
    ranked static system and a circuit, which take the root at every time,
    and two hand-made roots whose world images meet."""
    out = {}
    for kind, h, seed in itertools.product(("hamming", "random"), (1, 2, 3), range(2)):
        out[f"update-{kind}-h{h}-{seed}"] = (lambda make, args=(PQ, kind, seed, h): make(*args), [])
    for kind in ("hamming", "random"):
        out[f"update-{kind}-pqr-h2"] = (lambda make, kind=kind: make(PQR, kind, 0, 2), [])
    for name in ("small_update.scn", "borrowed_car.scn"):
        out[f"{name}-twin"] = (lambda make, name=name: statify(_scenario_system(name)[1]).inner, [])
    for name in ("ranked_basic.scn", "diag_three_gates.scn"):
        out[name] = (lambda make, name=name: _scenario_system(name)[1], [])
    out["ranked-on-two-times"] = (lambda make: ranked_on_two_times(_no_p_at_11()), [2])
    hamming = hamming_structure(PQ)
    out["tampered-lex"] = (lambda make: tampered_lex(system_from_update(hamming, 2, MENU)), [0, 1, 2])
    return out


FRAME_SYSTEMS = _frame_systems()


@pytest.mark.parametrize("name", sorted(FRAME_SYSTEMS))
def test_root_images_match_root_mask_of_the_run_masks(name, seeded_update):
    make, run_times = FRAME_SYSTEMS[name]
    sys_ = make(seeded_update)
    on_runs_at = check_frames(sys_, random.Random(name))
    assert [t for t, runs in enumerate(on_runs_at) if runs] == run_times


def test_frames_take_the_runs_only_where_root_images_meet(monkeypatch):
    hamming = hamming_structure(PQ)
    meet_at_2 = ranked_on_two_times(_no_p_at_11())
    index = meet_at_2.index
    assert index.root_blocks(2) is None
    for times in ((2,), (0, 1, 2)):
        frame = index.frame(times)
        assert frame.measure is index.prior and on_runs(frame, index, 2)
        assert frame.env(2, frozenset(PQ.worlds())) is index.env_event(2, frozenset(PQ.worlds()))
    assert not on_runs(index.frame((0, 1)), index, 1)
    meet_at_0 = tampered_lex(system_from_update(hamming, 2, MENU))
    assert meet_at_0.index.root_blocks(0) is None
    assert on_runs(meet_at_0.index.frame((0,)), meet_at_0.index, 0)
    # a prior that is its own root takes the root, whose masks are the run
    # masks
    _, static = _scenario_system("ranked_basic.scn")
    index = static.index
    frame = index.frame((0,))
    assert index.root_blocks(0) is not None and not on_runs(frame, index, 0)
    assert frame.measure is root_of(index.prior)[0] and frame.worlds(0) == index.at[0]
    assert frame.env(0, frozenset()) == 0 and frame.send(index.full) == index.full
    # the checkers read those times' run events and give the reference's
    # verdicts and witnesses
    for sys_ in (meet_at_2, meet_at_0):
        both_ways(monkeypatch, lambda: validate_upd(sys_, structure=hamming))
        both_ways(monkeypatch, lambda: revision.validate_rev(sys_))
    both_ways(monkeypatch, lambda: revision.validate_rev(static))


def test_kept_frames_leave_the_index_free_of_reference_cycles():
    # an index keeps its frames, so a frame bound to the index itself would
    # keep each system's masks alive until the cyclic collector ran
    def used_index(sys_):
        index = sys_.index
        for times in ((0,), tuple(range(sys_.horizon + 1))):
            frame = index.frame(times)
            frame.env(0, frozenset(sys_.universe)) & frame.observed(sys_.menu[:1])
        return weakref.ref(index)

    makers = [lambda: ranked_on_two_times(_no_p_at_11()), lambda: _scenario_system("ranked_basic.scn")[1]]
    gc.disable()
    try:
        for make in makers:  # the runs at time 2, and the root throughout
            index = used_index(make())
            assert index() is None
    finally:
        gc.enable()


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


@pytest.mark.parametrize(
    "structure",
    [hamming_structure(PQ), hamming_structure(PQR)]
    + [random_structure(vocab, random.Random(seed)) for vocab in (PQ, PQR) for seed in range(6)],
    ids=["hamming-pq", "hamming-pqr"] + [f"random-{v}-{seed}" for v in ("pq", "pqr") for seed in range(6)],
)
def test_closer_reads_the_distance_order(structure):
    less, d = structure.poset.less, structure.d
    for origin, a, b in itertools.product(structure.worlds, repeat=3):
        assert structure.closer(origin, a, b) is less(d(origin, a), d(origin, b))


@pytest.mark.parametrize("seed", range(20))
def test_check_km_unchanged_by_the_table(seed):
    structure = random_structure(PQ, random.Random(seed))
    report = check_km(update.update_operator(structure), structure.worlds, PQ)
    reference = check_km(
        lambda belief, observed: min_u_reference(structure, belief, observed), structure.worlds, PQ
    )
    assert report.to_machine() == reference.to_machine()


# ---------------------------------------------------------------------------
# minimal_prefix_cells within first-world blocks against the scan of every
# cell


def minimal_prefix_cells_reference(structure, observations):
    cells = update._obs_consistent_prefixes(structure, observations)
    order = update.LexRunOrder(structure)
    return [c for c in cells if not any(order.prec(d, c) for d in cells if d != c)]


@pytest.mark.parametrize(
    "structure",
    [hamming_structure(PQ), hamming_structure(PQR)]
    + [random_structure(PQ, random.Random(seed)) for seed in range(4)]
    + [random_structure(PQR, random.Random(7))],
    ids=["hamming-pq", "hamming-pqr"] + [f"random-pq-{seed}" for seed in range(4)] + ["random-pqr-7"],
)
def test_minimal_prefix_cells_match_the_scan_of_every_cell(structure):
    menu = [TRUE, P_, Q_, Not(Q_)]
    length = 3 if len(structure.worlds) == 4 else 2
    for k in range(length + 1):
        for observations in itertools.product(menu, repeat=k):
            assert update.minimal_prefix_cells(structure, observations) == (
                minimal_prefix_cells_reference(structure, observations)
            ), observations


# ---------------------------------------------------------------------------
# belief on the prior's root against the run path


def believed_on_runs(sys_, event, time):
    """``believed`` read on the runs: each world's runs against the rest of
    the event, under the run-numbered prior."""
    return _not_disbelieved(sys_.index.prior, event, sys_.index.at[time])


def _belief_systems():
    """System name -> a call that makes it."""
    def scenario(name):
        return _scenario_system(name)[1]

    out = {name: functools.partial(scenario, name) for name in sorted(os.listdir(SCENARIOS))}
    for name in ("small_update.scn", "ranked_basic.scn"):
        out[f"{name}-twin"] = lambda name=name: statify(scenario(name)).inner
    for seed, horizon in itertools.product(range(4), (1, 2)):
        structure = random_structure(PQ, random.Random(seed))
        out[f"random-seed{seed}-h{horizon}"] = functools.partial(system_from_update, structure, horizon, MENU)
    return out


BELIEF_SYSTEMS = _belief_systems()


@pytest.mark.parametrize("name", sorted(BELIEF_SYSTEMS))
def test_believed_on_the_root_matches_the_run_path(name):
    sys_ = BELIEF_SYSTEMS[name]()
    index, rng = sys_.index, random.Random(name)
    for m in range(sys_.horizon + 1):
        assert index.root_blocks(m) is not None  # the root path is taken
    for s_a, event in index.prefix.items():
        assert believed(sys_, event, len(s_a)) == believed_on_runs(sys_, event, len(s_a)), s_a
    for _ in range(20):
        event, m = rng.getrandbits(len(sys_.runs)), rng.randrange(sys_.horizon + 1)
        assert believed(sys_, event, m) == believed_on_runs(sys_, event, m)


def test_believed_takes_the_run_path_when_root_images_meet(monkeypatch):
    # a prior that reads the initial world alone: at time 1 every world's
    # runs reach back to several initial worlds, so the images meet
    source = system_from_update(hamming_structure(PQ), 1, MENU)
    worlds = tuple(PQ.worlds())
    by_initial = RankedMeasure(worlds, [bin(x).count("1") for x in worlds])
    sys_ = with_prior(source, MappedMeasure(source.runs, by_initial, [r.envs[0] for r in source.runs]))
    index = sys_.index
    assert index.root_blocks(0) is not None and index.root_blocks(1) is None
    read_on = []
    monkeypatch.setattr(
        "beliefchange.systems._not_disbelieved",
        lambda measure, *args: read_on.append(measure) or _not_disbelieved(measure, *args),
    )
    for s_a, event in index.prefix.items():
        assert believed(sys_, event, len(s_a)) == believed_on_runs(sys_, event, len(s_a)), s_a
        assert read_on.pop() is (index.prior if s_a else by_initial)


def test_borrowed_car_twin_believes_the_unchanged_cells_in_seconds():
    _, sys_ = _scenario_system("borrowed_car.scn")
    st = statify(sys_)
    st.inner.index
    start = time.perf_counter()
    got = bel(st.inner, ())
    elapsed = time.perf_counter() - start
    cells = update.minimal_prefix_cells(sys_.prior.structure, (TRUE,) * 4)
    assert got == {synthesis._encode_env_sequence(sys_, st.vocab, c) for c in cells}
    assert elapsed < 5


# ---------------------------------------------------------------------------
# root_mask, by bit walk or preimage scan, against the walk of every bit


def _root_mask_measures():
    """Measure name -> a call that makes a mapped measure whose image has
    fewer positions than its carrier has elements."""
    lex = functools.partial(system_from_update, hamming_structure(PQ), 2, MENU)

    def twin(name):
        return statify(_scenario_system(name)[1]).inner.index.prior

    preference = (
        "vocab p q\nhorizon 2\nprior preference\n  11 < 10\n  11 < 01\n  10 < 00\n"
        "menu true, p, !q\n"
    )
    return {
        "lex-prior": lambda: lex().prior,
        "conditioned": lambda: _conditioned_prior(lex(), (P_,)),
        "small_update-twin": functools.partial(twin, "small_update.scn"),
        "borrowed_car-twin": functools.partial(twin, "borrowed_car.scn"),
        "preference": lambda: build_system(load_scenario_text(preference)).prior,
    }


ROOT_MASK_MEASURES = _root_mask_measures()


@pytest.mark.parametrize("name", sorted(ROOT_MASK_MEASURES))
def test_root_mask_matches_the_walk_of_every_bit(name):
    measure = ROOT_MASK_MEASURES[name]()
    image = root_of(measure)[1]
    n, positions = len(image), len(set(image))
    assert positions < n  # dense masks take the scan
    rng = random.Random(name)

    def sample(k):
        return mask_of(rng.sample(range(n), k))

    # dense ones first, so sparse ones also come after the preimages
    sizes = [n, n - 1, (n + positions) // 2, positions + 1, positions, positions // 2, 2, 1, 0]
    masks = [sample(k) for k in sizes for _ in range(3)]
    masks += [rng.getrandbits(n) for _ in range(5)]
    for mask in masks:
        expected = mask_of([image[i] for i in bits(mask)])
        assert measure.root_mask(mask) == expected == measure.root_mask(Mask(mask))


def test_twin_prior_reads_the_source_root_images(monkeypatch):
    # a twin's run i is its source's run i, so its prior maps masks as the
    # source's does, through one memo and one set of preimages
    grouped, group_positions = [], plausibility.group_positions
    monkeypatch.setattr(
        plausibility, "group_positions", lambda column: grouped.append(column) or group_positions(column)
    )
    _, sys_ = _scenario_system("borrowed_car.scn")
    st = statify(sys_)
    star, source = st.inner.index.prior, st.source.index.prior
    images = (root_of(star)[1], root_of(source)[1])
    assert images[0] == images[1]
    verify_statification(st)
    assert len([column for column in grouped if column is images[0] or column is images[1]]) == 1
    rng, n = random.Random(68), len(st.inner.runs)
    for k in (n, n // 2, 2048, 1024, 1025, 3, 1, 0):
        mask = mask_of(rng.sample(range(n), k))
        expected = mask_of([images[1][i] for i in bits(mask)])
        assert star.root_mask(mask) == source.root_mask(mask) == expected


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
    calls = counted_compares(monkeypatch, RankedMeasure)
    sweep = list(revision._check_observation_neutrality(sys_, probes, seqs, 100_000))
    # only each witness's bottom test compares
    assert sweep and len(calls) == len(sweep)


# REV2 on a ranked or preferential root: decided on the root positions the
# runs reach, against the sweep over every pair of single runs


def rev2_reference(sys_):
    prior = sys_.index.prior
    singles = [Mask(1 << i) for i in range(len(sys_.runs))]
    pairs = list(itertools.combinations(singles, 2))
    for a, b in pairs:
        if prior.compare(a, b) is Ordering.INCOMPARABLE:
            yield "incomparable singleton runs exist (prior is not total)"
    for a, b in pairs:
        top = a if prior.at_least(a, b) else b
        if prior.compare(Mask(a | b), top) is not Ordering.EQUAL:
            yield "union does not take the maximum of its parts"


def _rev2_prior(kind, runs, rng):
    """A small prior of the given kind; "linear" and "mapped-linear" are
    chains, "mapped-partial" a partial order whose runs may reach only a
    chain of it, "lex" a first-divergence order (runs that differ only in
    what they observe share a cell)."""
    chain = lambda carrier: from_preference(carrier, zip(carrier, carrier[1:]))
    if kind == "linear":
        return chain(rng.sample(list(runs), len(runs)))
    if kind == "mapped-linear":
        return MappedMeasure(runs, chain(rng.sample(range(3), 3)), [rng.randrange(3) for _ in runs])
    if kind == "mapped-partial":
        order = from_preference(range(3), [(0, 1)])  # 2 is incomparable to both
        return MappedMeasure(runs, order, [rng.randrange(rng.choice([2, 3])) for _ in runs])
    if kind == "lex":
        return update.LexPrior(runs, random_structure(Vocabulary(["p"]), rng))
    return _small_prior(kind, runs, rng)


REV2_KINDS = SMALL_KINDS + ["linear", "mapped-linear", "mapped-partial", "lex"]


@pytest.mark.parametrize("kind", REV2_KINDS)
def test_rev2_reduction_matches_the_singleton_pair_sweep(kind):
    single = Vocabulary(["p"])
    systems = [system_from_update(hamming_structure(single), h, [TRUE, P_]) for h in (1, 2)]
    verdicts = set()
    for seed in range(40):
        rng = random.Random(seed)
        source = systems[seed % 2]
        runs = source.runs
        if kind == "lex" and seed % 4 < 2:  # runs from one initial world
            runs = tuple(r for r in runs if r.envs[0] == 1)
        prior = _rev2_prior(kind, runs, rng)
        runs = rng.sample(runs, len(runs))  # numbered apart from the carrier
        sys_ = with_prior(source, prior, runs)
        n = len(runs)
        fast = next(revision._check_ranked(sys_, n * (n - 1) // 2), "")
        assert fast == next(rev2_reference(sys_), ""), seed
        verdicts.add(fast)
        if isinstance(root_of(sys_.prior)[0], (RankedMeasure, PreferentialMeasure)):
            # decided on the root, whatever the budget
            assert next(revision._check_ranked(sys_, 0), "") == fast
    # both verdicts where the order may or may not be linear on the runs
    assert len(verdicts) == (2 if kind in ("mapped-preferential", "mapped-partial", "lex") else 1)
