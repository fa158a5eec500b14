"""Run-set events and measure comparisons on int masks, checked against the
frozenset scans and the set-level comparison rules they replace.

The references here are brute force on purpose: each event is a scan over
``sys.runs`` and each comparison is worked out on element sets.
"""
import itertools
import os
import random

import pytest

from beliefchange.diagnosis import build_diag_system, parse_circuit
from beliefchange.formulas import TRUE, Atom, Not, Vocabulary
from beliefchange.plausibility import (
    INF,
    CustomMeasure,
    MappedMeasure,
    Mask,
    Ordering,
    PlausibilityError,
    PreferentialMeasure,
    RankedMeasure,
    from_preference,
    rank_of,
)
from beliefchange.revision import min_rank_worlds, revision_from_system, system_from_ranking
from beliefchange.scenario import build_system, load_scenario, load_scenario_text
from beliefchange.synthesis import statify
from beliefchange.systems import System, _not_disbelieved, bel, runs_with_observations
from beliefchange.update import (
    LexRunOrder,
    hamming_structure,
    random_structure,
    system_from_update,
)

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "src", "beliefchange", "scenarios")
PQ = Vocabulary(["p", "q"])
P_ = Atom("p")
Q_ = Atom("q")

THREE_GATE = """
gate c1 AND l1 l2 -> l4
gate c2 OR l2 l3 -> l5
gate c3 XOR l4 l5 -> l6
observe l1 l2 l3 l6
test l1=1 l2=1 l3=0
test l1=0 l2=1 l3=1
"""


def _systems():
    preference = load_scenario_text(
        "vocab p q\nhorizon 2\nprior preference\n  11 < 10\n  11 < 01\n  10 < 00\n"
        "menu true, p, !q\n"
    )
    update = system_from_update(hamming_structure(PQ), 2, [TRUE, P_, Not(Q_)])
    ranked = system_from_ranking(PQ, {0: 2, 1: 1, 2: 1, 3: 0}, [TRUE, P_, Q_, Not(Q_)], 2)
    return {
        "update": update,
        "update-random": system_from_update(random_structure(PQ, random.Random(3)), 2, [TRUE, P_]),
        "ranked": ranked,
        # runs numbered in another order than the prior's carrier
        "ranked-reordered": System(
            PQ, ranked.runs[::-1], ranked.prior, ranked.horizon, menu=ranked.menu
        ),
        "preference": build_system(preference),
        "statified": statify(update).inner,
        "diagnosis": build_diag_system(*parse_circuit(THREE_GATE)),
    }


SYSTEMS = _systems()


@pytest.fixture(params=sorted(SYSTEMS))
def system(request):
    return SYSTEMS[request.param]


def runs_of(sys_, mask):
    return frozenset(r for i, r in enumerate(sys_.runs) if mask >> i & 1)


def formula_pool(sys_):
    return list(dict.fromkeys([TRUE, Not(TRUE)] + list(sys_.menu)))


# ---------------------------------------------------------------------------
# events


def test_observation_prefix_events_match_the_scan(system):
    prefixes = [()] + [seq for k in (1, 2, 3) for seq in itertools.product(system.menu, repeat=k)]
    for seq in prefixes[:200]:
        want = frozenset(
            r for r in system.runs if len(seq) <= system.horizon and r.obs[: len(seq)] == seq
        )
        assert runs_of(system, runs_with_observations(system, seq)) == want
        points = tuple((r, len(seq)) for r in system.runs if r.local_state(len(seq)) == seq)
        assert system.points_with_local_state(seq) == points


def test_environment_events_match_the_scan(system):
    index = system.index
    for t in range(system.horizon + 1):
        for w in system.universe:
            want = frozenset(r for r in system.runs if r.envs[t] == w)
            assert runs_of(system, index.at[t].get(w, 0)) == want
        for f in formula_pool(system):
            ext = system.vocab.extension(f)
            want = frozenset(r for r in system.runs if r.envs[t] in ext)
            assert runs_of(system, index.env_event(t, ext)) == want


def test_formula_prefix_and_neutrality_events_match_the_scan(system, run_events):
    pool = formula_pool(system)[:4]
    ext = system.vocab.extension
    for k in (1, 2):
        for formulas in itertools.product(pool, repeat=k):
            exts = [ext(f) for f in formulas]
            meets = lambda r: all(r.envs[i] in exts[i] for i in range(k))
            want = frozenset(r for r in system.runs if meets(r))
            assert runs_of(system, run_events.formula_prefix_event(system, formulas)) == want
            for obs in itertools.product(system.menu[:3], repeat=k - 1):
                observed = frozenset(r for r in want if r.obs[: len(obs)] == obs)
                assert runs_of(system, run_events.upd4_event(system, formulas, obs, True)) == observed
                true_then = frozenset(
                    r for r in want if all(r.envs[i + 1] in ext(o) for i, o in enumerate(obs))
                )
                assert runs_of(system, run_events.upd4_event(system, formulas, obs, False)) == true_then


def test_cell_events_match_the_scan(system, run_events):
    worlds = sorted(system.universe)[:4]
    for n in (1, 2):
        for cell in itertools.product(worlds, repeat=n):
            want = frozenset(r for r in system.runs if r.envs[:n] == cell)
            assert runs_of(system, run_events.cell_event(system.index, cell)) == want


# ---------------------------------------------------------------------------
# comparisons


def _dominates(prec, a, b):
    """Literal dominance rule on element sets: Pl(a) >= Pl(b)."""
    rest = b - a
    return all(
        any(prec(x, r) and not any(prec(s, x) for s in rest) for x in a) for r in rest
    )


def to_base(measure, element):
    """One hop of a mapped measure: the base element an element maps to."""
    return measure.base.carrier[measure.image[measure.index[element]]]


def reference_compare(measure, a, b):
    """The set-level comparison rule of each measure kind."""
    if isinstance(measure, MappedMeasure):
        image = lambda s: frozenset(to_base(measure, e) for e in s)
        return reference_compare(measure.base, image(a), image(b))
    if isinstance(measure, RankedMeasure):
        ra = min((measure.ranks[measure.index[e]] for e in a), default=INF)
        rb = min((measure.ranks[measure.index[e]] for e in b), default=INF)
        if ra == rb:
            return Ordering.EQUAL
        return Ordering.GREATER if ra < rb else Ordering.LESS
    if isinstance(measure, PreferentialMeasure):
        index, rows = measure.index, measure.rows
        prec = lambda x, y: rows[index[x]] >> index[y] & 1
        ge, le = _dominates(prec, a, b), _dominates(prec, b, a)
        return {
            (True, True): Ordering.EQUAL,
            (True, False): Ordering.GREATER,
            (False, True): Ordering.LESS,
            (False, False): Ordering.INCOMPARABLE,
        }[(ge, le)]
    return measure.compare_fn(a, b)


def seeded_pairs(n, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        sizes = [rng.choice([0, 1, 2, 3, rng.randint(0, n)]) for _ in range(2)]
        yield tuple(frozenset(rng.sample(range(n), min(k, n))) for k in sizes)


def assert_masks_agree(measure, count=150, seed=0):
    carrier = measure.carrier
    for ia, ib in seeded_pairs(len(carrier), count, seed):
        a = frozenset(carrier[i] for i in ia)
        b = frozenset(carrier[i] for i in ib)
        ma, mb = Mask(sum(1 << i for i in ia)), Mask(sum(1 << i for i in ib))
        want = reference_compare(measure, a, b)
        assert measure.compare(ma, mb) is want, (sorted(ia), sorted(ib))
        assert measure.compare(a, b) is want
        assert (len(ma), len(mb)) == (len(a), len(b))
        assert measure.at_least(ma, mb) == (want in (Ordering.GREATER, Ordering.EQUAL))
        assert measure.is_bottom(ma) == (reference_compare(measure, a, frozenset()) is Ordering.EQUAL)


def test_prior_compares_masks_as_element_sets(system):
    assert_masks_agree(system.prior)
    assert_masks_agree(system.index.prior, seed=1)


def test_conditioned_measures_compare_masks_as_element_sets(system):
    for s_a in list(system.index.prefix)[:12]:
        assert_masks_agree(system.plaus_at(s_a), count=40, seed=len(s_a))


def closed_pairs(pairs):
    """The transitive closure of a pair set, by a fixpoint over pairs."""
    closed = set(pairs)
    while True:
        more = {(a, d) for a, b in closed for c, d in closed if b == c} - closed
        if not more:
            return closed
        closed |= more


def rows_of(carrier, pairs):
    """``rows[i]``: the mask of the elements ``carrier[i]`` comes before."""
    return [sum(1 << j for j, y in enumerate(carrier) if (x, y) in pairs) for x in carrier]


def test_preference_from_pairs_equals_preference_from_rows():
    carrier = tuple(range(7))
    rng = random.Random(5)
    for _ in range(6):
        pairs = {(a, b) for a, b in itertools.combinations(carrier, 2) if rng.random() < 0.3}
        from_pairs = from_preference(carrier, pairs)
        assert list(from_pairs.rows) == rows_of(carrier, closed_pairs(pairs))
        from_rows = PreferentialMeasure(carrier, rows_of(carrier, closed_pairs(pairs)))
        masks = [Mask(k) for k in range(1 << len(carrier))]
        for ma, mb in itertools.product(masks, repeat=2):
            assert from_pairs.compare(ma, mb) is from_rows.compare(ma, mb)
        assert_masks_agree(from_pairs, count=60)
        # an order given by its rows need not be transitive
        assert_masks_agree(PreferentialMeasure(carrier, rows_of(carrier, pairs)))


def test_custom_and_mapped_measures_compare_masks_as_element_sets():
    carrier = tuple("abcdef")
    by_size = CustomMeasure(
        carrier, lambda a, b: Ordering.EQUAL if len(a) == len(b) else
        (Ordering.GREATER if len(a) > len(b) else Ordering.LESS),
    )
    assert_masks_agree(by_size)
    ranked = RankedMeasure(carrier, [i % 3 for i, e in enumerate(carrier)])
    keys = MappedMeasure(range(12), ranked, [i % 6 for i in range(12)])
    assert_masks_agree(keys)
    # a chain of two maps, the first onto a reordering of the second's carrier
    chain = MappedMeasure(tuple(reversed(range(12))), keys, [11 - i for i in range(12)])
    assert_masks_agree(chain)


def test_elements_outside_the_carrier_raise(system):
    stray = object()
    for measure in (system.prior, system.plaus_at(())):
        inside = measure.carrier[:1]
        with pytest.raises(PlausibilityError, match="elements outside carrier"):
            measure.compare(inside, [stray])
        with pytest.raises(PlausibilityError, match="elements outside carrier"):
            measure.at_least([stray], inside)
        # a mask with a bit past the carrier, a negative one, or a bare int
        past = Mask(1 << len(measure.carrier))
        for bad in (past, Mask(-1)):
            with pytest.raises(PlausibilityError, match="bits outside a carrier"):
                measure.compare(bad, Mask(1))
            with pytest.raises(PlausibilityError, match="bits outside a carrier"):
                measure.is_bottom(bad)
        with pytest.raises(PlausibilityError, match="must be a Mask"):
            measure.compare(1, Mask(1))


def test_a_run_outside_the_prior_carrier_raises():
    ranked = SYSTEMS["ranked"]
    prior = RankedMeasure(ranked.runs[1:], ranked.prior.ranks[1:])
    sys_ = System(PQ, ranked.runs[::-1], prior, ranked.horizon, menu=ranked.menu)
    with pytest.raises(PlausibilityError, match="outside a base carrier"):
        sys_.index


def test_lexicographic_rows_are_built_without_pairwise_comparisons(monkeypatch):
    # every row of a first-divergence prior comes from prefix blocks; the
    # pairwise order is only the reference
    def prec(self, a, b):
        raise AssertionError("LexRunOrder.prec called while building rows")

    monkeypatch.setattr(LexRunOrder, "prec", prec)
    sys_ = system_from_update(hamming_structure(PQ), 2, [TRUE, P_, Not(Q_)])
    order = sys_.prior.base
    assert len(order.rows) == len(order.carrier) == 64
    assert order.compare(Mask(1), Mask(1 << 63)) is Ordering.INCOMPARABLE


def test_preferential_rows_must_cover_the_carrier():
    with pytest.raises(PlausibilityError, match="2 rows for 3 carrier elements"):
        PreferentialMeasure("abc", [0, 0])


# ---------------------------------------------------------------------------
# least-ranked points and worlds


def _element_rank(measure, element):
    """Rank of one element under a ranked measure, walking any mapped chain
    in front of it one hop at a time."""
    while isinstance(measure, MappedMeasure):
        element, measure = to_base(measure, element), measure.base
    return measure.ranks[measure.index[element]]


def _element_rank_reference(measure):
    ranks = [_element_rank(measure, e) for e in measure.carrier]
    best = min(ranks, default=INF)
    assert rank_of(measure, Mask((1 << len(ranks)) - 1)) == best
    return [i for i, r in enumerate(ranks) if r == best] if best != INF else []


def _ranked_systems():
    out = {
        name: build_system(load_scenario(os.path.join(SCENARIOS, name)))
        for name in ("ranked_basic.scn", "diag_three_gates.scn")
    }
    out["ranked-reordered"] = SYSTEMS["ranked-reordered"]
    return out


RANKED_SYSTEMS = _ranked_systems()


@pytest.mark.parametrize("name", sorted(RANKED_SYSTEMS))
def test_least_ranked_points_match_element_rank(name):
    # bel keeps the worlds of a state's points of least element rank
    sys_ = RANKED_SYSTEMS[name]
    for s_a in sys_.index.prefix:
        measure = sys_.plaus_at(s_a)
        want = _element_rank_reference(measure)
        points = measure.carrier
        assert bel(sys_, s_a) == frozenset(points[i][0].envs[points[i][1]] for i in want)


def _survivors(measure):
    """The carrier positions the comparison rule of ``bel`` keeps when each
    element stands for a world of its own."""
    rows = {i: 1 << i for i in range(len(measure.carrier))}
    return sorted(_not_disbelieved(measure, (1 << len(measure.carrier)) - 1, rows))


def test_least_ranked_with_infinite_ranks():
    ranked = RankedMeasure("abcd", [INF, 2, 1, 1])
    assert _survivors(ranked) == _element_rank_reference(ranked) == [2, 3]
    middle = MappedMeasure("wxyz", ranked, [0, 0, 1, 2])  # w, x -> a; y -> b; z -> c
    chain = MappedMeasure("xyz", middle, [0, 1, 2])  # x -> w, y -> x, z -> y
    assert _survivors(chain) == _element_rank_reference(chain) == [2]
    assert rank_of(chain, "xy") == INF
    unreachable = MappedMeasure("uv", ranked, [0, 0])
    assert _survivors(unreachable) == _element_rank_reference(unreachable) == []


@pytest.mark.parametrize("name", sorted(RANKED_SYSTEMS))
def test_characteristic_world_ranks_are_the_best_run_rank_per_world(name):
    # a world's rank read through the run index, and the extracted
    # operator, which conditions the prior, keeps the least of them
    sys_ = RANKED_SYSTEMS[name]
    want = {w: INF for w in sys_.universe}
    for run in sys_.runs:
        w = run.envs[0]
        want[w] = min(want[w], sys_.prior.ranks[sys_.prior.index[run]])
    index = sys_.index
    assert {w: rank_of(index.prior, index.at[0].get(w, Mask(0))) for w in want} == want
    op, belief = revision_from_system(sys_, validate=False), bel(sys_, ())
    worlds = sorted(sys_.universe)
    inputs = [sys_.universe] + [frozenset(worlds[i:i + 2]) for i in range(len(worlds))]
    for ext in inputs:
        assert op(belief, ext) == min_rank_worlds(want, ext)
