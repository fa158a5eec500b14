import copy
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from beliefchange.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Formula,
    FormulaError,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    TimestampError,
    UnknownAtomError,
    Vocabulary,
    entails,
    extension,
    formula_of_extension,
    parse_formula,
    print_formula,
    timestamp,
    timestamped_vocabulary,
    world_formula,
)

PQ = Vocabulary(["p", "q"])
P = Vocabulary(["p"])
PQR = Vocabulary(["p", "q", "r"])


def w(bits):
    return PQ.world_from_str(bits)


# ---------------------------------------------------------------------------
# parsing


def test_parse_basic_and_not():
    assert parse_formula("p & !q", PQ) == And(Atom("p"), Not(Atom("q")))


def test_parse_implies_from_constant():
    assert parse_formula("true -> p", PQ) == Implies(TRUE, Atom("p"))


def test_parse_timestamped_atoms():
    vocab = timestamped_vocabulary(PQ, 2)
    f = parse_formula("p@2 & q@2", vocab)
    assert f == And(Atom("p", 2), Atom("q", 2))
    # printer round trip is the oracle for the concrete syntax
    assert parse_formula(print_formula(f), vocab) == f


def test_parse_precedence_and_associativity():
    f = parse_formula("!p & q | p -> q <-> p", PQ)
    assert f == Iff(Implies(Or(And(Not(Atom("p")), Atom("q")), Atom("p")), Atom("q")), Atom("p"))
    g = parse_formula("p -> q -> p", PQ)
    assert g == Implies(Atom("p"), Implies(Atom("q"), Atom("p")))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p & & q", PQ)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_formula("(p & q", PQ)
    with pytest.raises(ParseError):
        parse_formula("p q", PQ)
    with pytest.raises(ParseError):
        parse_formula("", PQ)


def test_unknown_atom_is_named():
    with pytest.raises(UnknownAtomError) as err:
        parse_formula("p & zz", PQ)
    assert err.value.atom == "zz"
    with pytest.raises(UnknownAtomError) as err:
        parse_formula("p@2", PQ)
    assert err.value.atom == "p@2"


@st.composite
def formulas(draw, names=("p", "q"), depth=3):
    if depth == 0:
        return draw(st.sampled_from([Atom(n) for n in names] + [TRUE, FALSE]))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(formulas(names=names, depth=0))
    if kind == 1:
        return Not(draw(formulas(names=names, depth=depth - 1)))
    ctor = [And, Or, Implies, Iff][kind - 2]
    return ctor(
        draw(formulas(names=names, depth=depth - 1)),
        draw(formulas(names=names, depth=depth - 1)),
    )


@given(formulas())
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f), PQ) == f


# ---------------------------------------------------------------------------
# worlds and extensions


def test_enumerate_worlds_single_prop():
    assert list(P.worlds()) == [0, 1]
    assert P.truth(0, "p") is False
    assert P.truth(1, "p") is True


def test_enumerate_worlds_counts():
    assert PQ.world_count == 4
    assert PQR.world_count == 8
    assert len(set(PQR.worlds())) == 8


def test_world_str_order_is_lexicographic():
    assert [PQ.world_str(x) for x in PQ.worlds()] == ["00", "01", "10", "11"]
    assert PQ.truth(w("10"), "p") is True
    assert PQ.truth(w("10"), "q") is False


def test_extension_constants():
    assert extension(TRUE, PQ) == PQ.all_worlds()
    assert extension(And(Atom("p"), Not(Atom("p"))), PQ) == frozenset()


def test_extension_implication_truth_table():
    # oracle: evaluate p -> q row by row
    expected = frozenset(
        world
        for world in PQ.worlds()
        if (not PQ.truth(world, "p")) or PQ.truth(world, "q")
    )
    assert extension(parse_formula("p -> q", PQ), PQ) == expected
    assert expected == frozenset({w("00"), w("01"), w("11")})


def _semantic_pool(vocab, depth):
    """All formulas up to the given connective depth, thinned to a few
    syntactic variants per extension per layer.

    Extensions determine the algebraic laws under test, so the thinning
    keeps the check exhaustive over semantic cases while holding the
    formula count down.
    """
    layer = [Atom(n) for n in vocab.props] + [TRUE, FALSE]
    pool = list(layer)
    for _ in range(depth):
        seen = {}
        fresh = []
        for f in layer:
            fresh.append(Not(f))
        for a, b in itertools.product(layer, repeat=2):
            for ctor in (And, Or, Implies, Iff):
                fresh.append(ctor(a, b))
        layer = []
        for f in fresh:
            key = vocab.extension(f)
            seen.setdefault(key, []).append(f)
            if len(seen[key]) <= 2:
                layer.append(f)
        pool.extend(layer)
    return pool


def test_connective_laws_depth3():
    pool = _semantic_pool(PQ, 3)
    for f, g in itertools.product(pool, repeat=2):
        assert extension(And(f, g), PQ) == extension(f, PQ) & extension(g, PQ)
    for f in pool:
        assert extension(Not(f), PQ) == PQ.all_worlds() - extension(f, PQ)


# ---------------------------------------------------------------------------
# entailment


def test_entails_inconsistent_set():
    assert entails(frozenset(), FALSE, PQ)


def test_entails_tautology():
    assert entails(PQ.all_worlds(), parse_formula("p | !p", PQ), PQ)


def test_entails_conjunction_elimination():
    assert entails(extension(parse_formula("p & q", PQ), PQ), Atom("p"), PQ)


def test_entails_monotone_and_transitive():
    f = parse_formula("p -> q", PQ)
    big = extension(parse_formula("p | q", PQ), PQ)
    for small in map(frozenset, itertools.combinations(big, 2)):
        if entails(big, f, PQ):
            assert entails(small, f, PQ)
    # reflexivity: every extension entails its own canonical formula
    for mask in range(1 << PQ.world_count):
        ws = frozenset(x for x in PQ.worlds() if mask >> x & 1)
        assert entails(ws, formula_of_extension(ws, PQ), PQ)


# ---------------------------------------------------------------------------
# canonical DNF


def test_formula_of_extension_corners():
    assert formula_of_extension(frozenset(), PQ) == FALSE
    assert formula_of_extension(PQ.all_worlds(), PQ) == TRUE


def test_formula_of_extension_single_world():
    f = formula_of_extension(frozenset({w("11")}), PQ)
    assert extension(f, PQ) == frozenset({w("11")})
    assert print_formula(f) == "p & q"


def test_formula_of_extension_round_trip_exhaustive():
    for vocab in (P, PQ, PQR):
        for mask in range(1 << vocab.world_count):
            ws = frozenset(x for x in vocab.worlds() if mask >> x & 1)
            assert extension(formula_of_extension(ws, vocab), vocab) == ws


def test_formula_of_extension_deterministic():
    ws = frozenset({w("00"), w("10")})
    assert print_formula(formula_of_extension(ws, PQ)) == "!p & !q | p & !q"


def test_minterms_are_built_once_per_vocabulary():
    vocab = Vocabulary(["p", "q"])
    minterm = world_formula(w("10"), vocab)
    assert world_formula(w("10"), vocab) is minterm
    # every DNF over the vocabulary holds that node, hash already kept
    assert formula_of_extension(frozenset({w("01"), w("10")}), vocab).right is minterm


def test_a_fresh_vocabulary_shares_no_minterm_node():
    first, fresh = Vocabulary(["p", "q"]), Vocabulary(["p", "q"])
    for x in first.worlds():
        ours, theirs = world_formula(x, first), world_formula(x, fresh)
        assert ours == theirs
        assert not {id(n) for n in _nodes(ours)} & {id(n) for n in _nodes(theirs)}


def test_vocabulary_copies_round_trip_with_their_minterms():
    vocab = Vocabulary(["p", "q", "r"])
    minterms = [world_formula(x, vocab) for x in vocab.worlds()]
    for copy_ in (pickle.loads(pickle.dumps(vocab)), copy.deepcopy(vocab)):
        assert copy_ == vocab and hash(copy_) == hash(vocab)
        assert [world_formula(x, copy_) for x in vocab.worlds()] == minterms
        for x in vocab.worlds():
            assert extension(world_formula(x, copy_), copy_) == {x}


# ---------------------------------------------------------------------------
# timestamping


def test_timestamp_atom():
    assert timestamp(Atom("p"), 0) == Atom("p", 0)


def test_timestamp_distributes_over_connectives():
    assert timestamp(parse_formula("p & q", PQ), 2) == And(Atom("p", 2), Atom("q", 2))
    f = timestamp(parse_formula("!(p -> q)", PQ), 1)
    assert f == Not(Implies(Atom("p", 1), Atom("q", 1)))


def test_timestamp_rejects_timestamped_input():
    with pytest.raises(TimestampError):
        timestamp(Atom("p", 1), 2)


def test_timestamped_vocabulary_and_world_formula():
    vocab = timestamped_vocabulary(PQ, 1)
    assert vocab.props == ("p@0", "q@0", "p@1", "q@1")
    f = world_formula(vocab.world_from_str("1010"), vocab)
    assert extension(f, vocab) == frozenset({vocab.world_from_str("1010")})


# ---------------------------------------------------------------------------
# vocabulary validation


def test_vocabulary_rejects_bad_input():
    with pytest.raises(FormulaError):
        Vocabulary([])
    with pytest.raises(FormulaError):
        Vocabulary(["p"] * 2)
    with pytest.raises(FormulaError):
        Vocabulary(["p q"])
    with pytest.raises(FormulaError):
        Vocabulary(["true"])
    with pytest.raises(FormulaError):
        Vocabulary([f"x{i}" for i in range(17)])


# ---------------------------------------------------------------------------
# hashing


def _nodes(f):
    yield f
    for name in f.__match_args__:
        child = getattr(f, name)
        if isinstance(child, Formula):
            yield from _nodes(child)


def test_formula_nodes_keep_the_generated_dataclass_hash():
    # a frozen dataclass hashes the tuple of its fields; the kept hash must
    # be that value, so set and dict orders do not move
    f = And(parse_formula("!p & q | p -> q <-> p", PQ), Or(TRUE, Not(Atom("p", 2))))
    kinds = set()
    for node in _nodes(f):
        fields = tuple(getattr(node, name) for name in node.__match_args__)
        assert hash(node) == hash(fields)
        assert node._hash == hash(fields)
        kinds.add(type(node).__name__)
    assert kinds == {"And", "Or", "Not", "Atom", "Iff", "Implies", "Const"}


def test_formula_copies_compute_their_own_hash():
    f = parse_formula("p & !q", PQ)
    hash(f)
    for copy_ in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert copy_ == f and copy_._hash is None
        assert hash(copy_) == hash(f)
