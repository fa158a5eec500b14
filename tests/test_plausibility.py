import itertools
import random

import pytest

from beliefchange.formulas import TRUE, And, Atom, Implies, Not, Vocabulary, formula_of_extension
from beliefchange.plausibility import (
    INF,
    CustomMeasure,
    MappedMeasure,
    Ordering,
    PlausibilityError,
    PlausibilityStructure,
    PreferentialMeasure,
    RankedMeasure,
    believes,
    check_klm_closure,
    check_monotonicity,
    conditional_holds,
    extension_representatives,
    from_preference,
    is_qualitative,
    rank_of,
    strict_closure,
)

PQ = Vocabulary(["p", "q"])


def subsets(elems):
    elems = tuple(elems)
    for mask in range(1 << len(elems)):
        yield frozenset(e for i, e in enumerate(elems) if mask >> i & 1)


def pair_closure(pairs):
    """The smallest transitive relation containing the given pairs: a
    fixpoint over every pair x pair product."""
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(closed), repeat=2):
            if b == c and (a, d) not in closed:
                closed.add((a, d))
                changed = True
    return closed


def dominance_oracle(order_pairs, a, b):
    """Literal case enumeration of the dominance rule: Pl(a) >= Pl(b)."""
    prec = lambda x, y: (x, y) in order_pairs
    ok_for = []
    for r in b - a:
        witnesses = [
            x for x in a if prec(x, r) and not any(prec(s, x) for s in b - a)
        ]
        ok_for.append(bool(witnesses))
    return all(ok_for)


# ---------------------------------------------------------------------------
# ranked measures


def test_ranked_empty_set_is_bottom():
    m = RankedMeasure("ab", [0, 1])
    assert m.compare(frozenset(), frozenset("a")) is Ordering.LESS
    assert m.is_bottom(frozenset())
    assert not m.is_bottom(frozenset("a"))


def test_ranked_lower_rank_more_plausible():
    m = RankedMeasure("ab", [0, 1])
    assert m.compare(frozenset("a"), frozenset("b")) is Ordering.GREATER
    assert m.compare(frozenset("b"), frozenset("a")) is Ordering.LESS
    assert m.compare(frozenset("ab"), frozenset("a")) is Ordering.EQUAL


def test_ranked_union_takes_min_rank():
    m = RankedMeasure("abcd", [0, 1, 2, 1])
    for a, b in itertools.product(subsets("abcd"), repeat=2):
        assert rank_of(m, a | b) == min(rank_of(m, a), rank_of(m, b))
        assert m.compare(a, b) is not Ordering.INCOMPARABLE  # total


def test_ranked_infinite_rank_sits_at_bottom():
    m = RankedMeasure("ab", [0, INF])
    assert m.is_bottom(frozenset("b"))
    assert m.compare(frozenset("b"), frozenset()) is Ordering.EQUAL


def test_ranked_rejects_bad_ranks_and_foreign_elements():
    with pytest.raises(PlausibilityError):
        RankedMeasure("ab", [-1, 0])
    with pytest.raises(PlausibilityError):
        RankedMeasure("ab", [0])
    with pytest.raises(PlausibilityError, match="positional"):
        RankedMeasure("ab", {"a": 0, "b": 1})
    m = RankedMeasure("ab", [0, 0])
    with pytest.raises(PlausibilityError):
        m.compare(frozenset("ax"), frozenset("b"))


# ---------------------------------------------------------------------------
# preferential measures


def test_preferential_simple_dominance():
    m = from_preference("ab", [("a", "b")])
    assert m.compare(frozenset("a"), frozenset("b")) is Ordering.GREATER
    assert m.compare(frozenset("ab"), frozenset("a")) is Ordering.EQUAL


def test_preferential_incomparable_elements():
    m = from_preference("abc", [("a", "c"), ("b", "c")])
    assert m.compare(frozenset("a"), frozenset("b")) is Ordering.INCOMPARABLE
    assert m.compare(frozenset("a"), frozenset("c")) is Ordering.GREATER


def test_preferential_empty_order_singletons():
    m = from_preference("ab", [])
    assert m.compare(frozenset("a"), frozenset("b")) is Ordering.INCOMPARABLE
    assert m.compare(frozenset("a"), frozenset("a")) is Ordering.EQUAL
    assert m.compare(frozenset(), frozenset("a")) is Ordering.LESS


def test_preferential_matches_dominance_oracle_exhaustively():
    carrier = "abcd"
    order_sets = [
        set(),
        {("a", "b")},
        {("a", "b"), ("a", "c"), ("b", "c")},  # chain via closure
        {("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")},  # diamond
        {("a", "b"), ("c", "d")},  # two islands
    ]
    for pairs in order_sets:
        m = from_preference(carrier, pairs)
        closed = pair_closure(pairs)
        for a, b in itertools.product(subsets(carrier), repeat=2):
            ge = dominance_oracle(closed, a, b)
            le = dominance_oracle(closed, b, a)
            got = m.compare(a, b)
            want = {
                (True, True): Ordering.EQUAL,
                (True, False): Ordering.GREATER,
                (False, True): Ordering.LESS,
                (False, False): Ordering.INCOMPARABLE,
            }[(ge, le)]
            assert got is want, (pairs, sorted(a), sorted(b))


def test_total_preference_agrees_with_ranking_on_all_subsets():
    carrier = "abcd"
    m = from_preference(carrier, [("a", "b"), ("b", "c"), ("c", "d")])
    r = RankedMeasure(carrier, [0, 1, 2, 3])
    for a, b in itertools.product(subsets(carrier), repeat=2):
        assert m.compare(a, b) is r.compare(a, b)


def test_preference_cycle_rejected():
    with pytest.raises(PlausibilityError, match="preference order contains a cycle"):
        from_preference("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(PlausibilityError, match="preference order contains a cycle"):
        from_preference("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(PlausibilityError, match="elements outside carrier: 'z'"):
        from_preference("ab", [("a", "z")])


@pytest.mark.parametrize("seed", range(40))
def test_mask_closure_matches_the_pair_closure(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 7)
    pairs = {(a, b) for a in range(n) for b in range(n) if rng.random() < rng.choice([0.1, 0.25, 0.5])}
    closed = pair_closure(pairs)
    got = strict_closure(range(n), pairs)
    if any(a == b for a, b in closed):
        assert got is None
    else:
        assert got == [sum(1 << b for b in range(n) if (a, b) in closed) for a in range(n)]


def test_mapped_measure_compares_image_sets_under_a_key_map():
    # elements 0..5 in three key classes; the order is on keys only, and
    # elements sharing a key are order-equivalent
    carrier = tuple(range(6))
    key = lambda x: x % 3
    keys = from_preference(range(3), [(0, 1), (0, 2), (1, 2)])
    mapped = MappedMeasure(carrier, keys, [key(x) for x in carrier])
    for a, b in itertools.product(subsets(carrier), repeat=2):
        want = keys.compare(frozenset(map(key, a)), frozenset(map(key, b)))
        assert mapped.compare(a, b) is want, (sorted(a), sorted(b))
    assert mapped.compare([0], [3]) is Ordering.EQUAL


def test_mapped_measure_rejects_a_bad_image():
    keys = from_preference(range(3), [(0, 1)])
    with pytest.raises(PlausibilityError, match="image of 2 positions for a carrier of 3"):
        MappedMeasure("abc", keys, [0, 1])
    for bad in (3, -1):
        with pytest.raises(PlausibilityError, match="outside a base carrier of 3"):
            MappedMeasure("abc", keys, [0, bad, 2])


# ---------------------------------------------------------------------------
# axioms


def test_monotonicity_holds_for_all_kinds():
    measures = [
        RankedMeasure("abcd", [0, 1, 1, 3]),
        from_preference("abcd", [("a", "b"), ("c", "d")]),
        from_preference("abcd", []),
    ]
    for m in measures:
        assert check_monotonicity(m)


def test_ranked_measures_are_qualitative():
    for ranks in itertools.product(range(3), repeat=4):
        m = RankedMeasure("abcd", ranks)
        assert is_qualitative(m)


def test_preferential_measures_are_qualitative():
    order_sets = [
        set(),
        {("a", "b")},
        {("a", "b"), ("b", "c")},
        {("a", "c"), ("b", "c")},
        {("a", "b"), ("c", "d")},
        {("a", "b"), ("a", "c"), ("a", "d")},
    ]
    for pairs in order_sets:
        m = from_preference("abcd", pairs)
        assert is_qualitative(m)


def test_custom_union_of_bottoms_violation_detected():
    def cmp(a, b):
        va = 1 if len(a) >= 2 else 0
        vb = 1 if len(b) >= 2 else 0
        if va == vb:
            return Ordering.EQUAL
        return Ordering.GREATER if va > vb else Ordering.LESS

    m = CustomMeasure("ab", cmp)
    # Pl({a}) = Pl({b}) = bottom but Pl({a,b}) > bottom
    assert m.is_bottom(frozenset("a")) and m.is_bottom(frozenset("b"))
    assert not m.is_bottom(frozenset("ab"))
    assert not is_qualitative(m)


# ---------------------------------------------------------------------------
# conditionals and belief


def ranked_structure(ranks_by_bits, vocab=PQ):
    carrier = tuple(ranks_by_bits)
    measure = RankedMeasure(carrier, list(ranks_by_bits.values()))
    labeling = {bits: vocab.world_from_str(bits) for bits in carrier}
    return PlausibilityStructure(measure, labeling, vocab)


EXAMPLE = ranked_structure({"11": 0, "10": 1, "01": 1, "00": 2})


def test_conditional_vacuous_on_impossible_antecedent():
    from beliefchange.formulas import FALSE

    for ws in subsets(PQ.worlds()):
        psi = formula_of_extension(ws, PQ)
        assert conditional_holds(EXAMPLE, FALSE, psi)


def test_conditional_reflexive():
    for ws in subsets(PQ.worlds()):
        phi = formula_of_extension(ws, PQ)
        assert conditional_holds(EXAMPLE, phi, phi)


def test_conditional_rank_comparison():
    # given p, the p-and-q region (rank 0) beats the p-and-not-q region (rank 1)
    assert conditional_holds(EXAMPLE, Atom("p"), Atom("q"))
    assert not conditional_holds(EXAMPLE, Atom("p"), Not(Atom("q")))


def test_believes_basics():
    assert believes(EXAMPLE, TRUE)
    flat = ranked_structure({"0": 0, "1": 0}, Vocabulary(["p"]))
    assert not believes(flat, Atom("p"))
    assert believes(EXAMPLE, And(Atom("p"), Atom("q")))


def preferential_conditional_holds(
    order: PreferentialMeasure, labeling, vocab: Vocabulary, antecedent, consequent
) -> bool:
    """World-order reading of the conditional, an oracle apart from the
    dominance lift: for every element satisfying the antecedent there must
    be an at least as preferred element satisfying antecedent-and-
    consequent, all of whose strict betters satisfy antecedent-implies-
    consequent."""
    ante_ext = vocab.extension(antecedent)
    good_ext = vocab.extension(And(antecedent, consequent))
    impl_ext = vocab.extension(Implies(antecedent, consequent))
    labels, rows = [labeling[e] for e in order.carrier], order.rows
    for w1, label1 in enumerate(labels):
        if label1 not in ante_ext:
            continue
        found = False
        for w2, label2 in enumerate(labels):
            if label2 not in good_ext:
                continue
            if w2 != w1 and not rows[w2] >> w1 & 1:
                continue  # witnesses must be at least as normal as w1
            if all(label3 in impl_ext for label3, row in zip(labels, rows) if row >> w2 & 1):
                found = True
                break
        if not found:
            return False
    return True


def test_conditional_agrees_with_preference_clause():
    """The dominance-lifted conditional coincides with the direct
    world-order clause, for every order over <=4 labelled elements and all
    extension pairs (formula depth is irrelevant beyond the extension)."""
    vocab = PQ
    carrier = ("e0", "e1", "e2", "e3")
    labeling = dict(zip(carrier, vocab.worlds()))
    order_sets = [
        set(),
        {("e0", "e1")},
        {("e0", "e1"), ("e1", "e2")},
        {("e0", "e2"), ("e1", "e2")},
        {("e0", "e1"), ("e2", "e3")},
        {("e0", "e1"), ("e0", "e2"), ("e0", "e3")},
        {("e0", "e1"), ("e1", "e2"), ("e2", "e3")},
    ]
    reps = [f for f, _ in extension_representatives(vocab)]
    for pairs in order_sets:
        m = from_preference(carrier, pairs)
        s = PlausibilityStructure(m, labeling, vocab)
        for phi, psi in itertools.product(reps, repeat=2):
            assert conditional_holds(s, phi, psi) == preferential_conditional_holds(
                m, labeling, vocab, phi, psi
            ), (pairs, str(phi), str(psi))


# ---------------------------------------------------------------------------
# closure rules


def test_klm_closure_ranked_structures():
    for ranks in [(0, 0, 0, 0), (0, 1, 1, 2), (0, 1, 2, 3), (2, 0, 1, 0)]:
        s = ranked_structure(dict(zip(["00", "01", "10", "11"], ranks)))
        report = check_klm_closure(s)
        assert report.all_passed, report.to_text()


def test_klm_closure_preferential_structures():
    carrier = ("e0", "e1", "e2", "e3")
    labeling = dict(zip(carrier, PQ.worlds()))
    for pairs in [set(), {("e0", "e1")}, {("e0", "e2"), ("e1", "e2")}]:
        m = from_preference(carrier, pairs)
        s = PlausibilityStructure(m, labeling, PQ)
        report = check_klm_closure(s)
        assert report.all_passed, report.to_text()


def test_klm_closure_catches_and_violation():
    # additive weights are monotone but not qualitative; majorities do not
    # intersect, so the AND rule must fail
    carrier = ("00", "01", "10")
    weights = {"00": 4, "01": 3, "10": 3}

    def cmp(a, b):
        va = sum(weights[e] for e in a)
        vb = sum(weights[e] for e in b)
        if va == vb:
            return Ordering.EQUAL
        return Ordering.GREATER if va > vb else Ordering.LESS

    m = CustomMeasure(carrier, cmp)
    assert check_monotonicity(m)
    assert not is_qualitative(m)
    s = PlausibilityStructure(m, {b: PQ.world_from_str(b) for b in carrier}, PQ)
    report = check_klm_closure(s)
    assert not report["AND"].passed
