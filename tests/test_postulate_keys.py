"""Differential tests of the keyed postulate sweeps and their fast paths.

``check_agm`` decides R7 and R8 once per distinct key ``psi & (phi |
revise[phi])``, or by the order the operator reveals on pairs, and
``check_km`` decides U8 on (mu, singleton) pairs, U5 and U6 on {} and the
singletons once U8 holds, and reads one U4 variant per observation off
its worlds.  The references below are the direct sweeps: R7 and R8 over
every (phi, psi) pair, U8 over every ordered (mu1, mu2, phi) triple, U5
and U6 over every belief, and U4 rebuilding its variant for every pair
from the double negation of the canonical formula.  Both sides record R6
as holding by construction, with no operator call.  Every report must
match its reference line for line, and the operator must see the same
inputs.  The operators that answer on masks are compared with a frozenset
wrapper of themselves, which the table calls instead.

``check_km`` also decides U1-U4 row by row and U5-U7 from the order each
row reveals on pairs (``revealed_order``); ``oracle_check_km``, its
earlier form, is the reference for those, on operators that fail each of
U5, U6 and U7, and a guard counts the ordered sweeps a distance update
enters.
"""
from __future__ import annotations

import itertools
import operator
import random
from typing import Iterable, Iterator

import pytest

from beliefchange.formulas import (
    Not,
    OperatorTable,
    Vocabulary,
    formula_of_extension,
    revealed_order,
)
from beliefchange.plausibility import PlausibilityError
from beliefchange.reports import Report
from beliefchange import revision, update
from beliefchange.revision import (
    RevisionError,
    RevisionOperator,
    check_agm,
    min_rank_worlds,
    operator_from_ranking,
)
from beliefchange.update import check_km, hamming_structure, random_structure, update_operator

PQ = Vocabulary(["p", "q"])
PQR = Vocabulary(["p", "q", "r"])


def reference_check_agm(op, belief) -> Report:
    vocab = op.vocab
    table = OperatorTable(op, vocab.worlds())
    exts = [table.mask(ext) for ext in sorted(_subsets(vocab.worlds()), key=sorted)]
    every = table.mask(vocab.all_worlds())
    belief = table.mask(belief)
    revise = table.row(belief)

    def describe(mask):
        return vocab.extension_str(table.ext(mask))

    report = Report("agm")
    report.add_first("R1", (
        f"output not an extension for input {describe(phi)}"
        for phi in exts if revise[phi] & ~every
    ))
    report.add_first("R2", (
        f"revision by {describe(phi)} leaves its extension"
        for phi in exts if revise[phi] & ~phi
    ))
    report.add_first("R3", (
        f"revision by {describe(phi)} loses part of the belief overlap"
        for phi in exts if belief & phi & ~revise[phi]
    ))
    report.add_first("R4", (
        f"consistent revision by {describe(phi)} adds foreign worlds"
        for phi in exts if belief & phi and revise[phi] & ~(belief & phi)
    ))
    report.add_first("R5", (
        f"emptiness mismatch for input {describe(phi)}"
        for phi in exts if (not revise[phi]) != (not phi)
    ))
    report.add("R6", True)
    report.add_first("R7", (
        f"conjunctive revision {describe(phi)} & {describe(psi)} "
        "dropped compatible worlds"
        for phi, psi in itertools.product(exts, repeat=2)
        if revise[phi] & psi & ~revise[phi & psi]
    ))
    report.add_first("R8", (
        f"conjunctive revision {describe(phi)} & {describe(psi)} "
        "added worlds beyond the narrowed result"
        for phi, psi in itertools.product(exts, repeat=2)
        if revise[phi] & psi and revise[phi & psi] & ~(revise[phi] & psi)
    ))
    return report


def reference_check_km(op, worlds, vocab) -> Report:
    worlds = tuple(sorted(worlds))
    table = OperatorTable(op, worlds)
    subsets = range(1 << len(worlds))
    upd = [table.row(mu) for mu in subsets]

    def describe(mask):
        return vocab.extension_str(table.ext(mask))

    def u4(mu, phi):
        f = formula_of_extension(table.ext(phi), vocab)
        variant = table.mask(vocab.extension(Not(Not(f))) & frozenset(worlds))
        if upd[mu][phi] != upd[mu][variant]:
            return f"syntax leaked for {describe(mu)} by {describe(phi)}"
        return ""

    below = [[psi for psi in subsets if not psi & ~phi] for phi in subsets]
    above = [[psi for psi in subsets if not phi & ~psi] for phi in subsets]

    def u5():
        for mu in subsets:
            row = upd[mu]
            for phi in subsets:
                kept = row[phi]
                for psi in below[phi] if not kept & ~phi else subsets:
                    if kept & psi & ~row[phi & psi]:
                        yield (
                            f"narrowing {describe(mu)} by {describe(phi)} then "
                            f"{describe(psi)} lost worlds"
                        )

    def u6():
        for mu in subsets:
            row = upd[mu]
            for phi in subsets:
                kept = row[phi]
                for psi in above[kept] if kept < len(subsets) else ():
                    if not row[psi] & ~phi and row[psi] != kept:
                        yield (
                            f"mutually entailing updates of {describe(mu)} by "
                            f"{describe(phi)}, {describe(psi)} differ"
                        )

    def u8():
        for mu1 in subsets:
            for mu2 in subsets[mu1:]:
                for phi in subsets:
                    if upd[mu1 | mu2][phi] != upd[mu1][phi] | upd[mu2][phi]:
                        yield (
                            f"update of {describe(mu1)} | {describe(mu2)} by "
                            f"{describe(phi)} is not the union of the parts"
                        )

    report = Report("km")
    report.add_first("U1", (
        f"update {describe(mu)} by {describe(phi)} leaves the observation"
        for mu, phi in itertools.product(subsets, repeat=2) if upd[mu][phi] & ~phi
    ))
    report.add_first("U2", (
        f"update of {describe(mu)} by implied {describe(phi)} changed beliefs"
        for mu, phi in itertools.product(subsets, repeat=2)
        if not mu & ~phi and upd[mu][phi] != mu
    ))
    report.add_first("U3", (
        f"emptiness mismatch for {describe(mu)} by {describe(phi)}"
        for mu, phi in itertools.product(subsets, repeat=2)
        if (not upd[mu][phi]) != (not mu or not phi)
    ))
    report.add_first("U4", itertools.starmap(u4, itertools.product(subsets, repeat=2)))
    report.add_first("U5", u5())
    report.add_first("U6", u6())
    report.add_first("U7", (
        f"complete belief {describe(mu)}: updates by {describe(phi)} and "
        f"{describe(psi)} disagree with their disjunction"
        for mu in (1 << i for i in range(len(worlds)))
        for phi, psi in itertools.product(subsets, repeat=2)
        if upd[mu][phi] & upd[mu][psi] & ~upd[mu][phi | psi]
    ))
    report.add_first("U8", u8())
    return report


def _recording(op):
    """The operator, and the list of the arguments it is called with."""
    calls = []

    def recorded(*args):
        calls.append(tuple(frozenset(a) for a in args))
        return op(*args)

    return recorded, calls


def assert_agm_matches(apply, vocab, belief):
    op, calls = _recording(apply)
    ref_op, ref_calls = _recording(apply)
    report = check_agm(RevisionOperator(op, vocab), belief)
    reference = reference_check_agm(RevisionOperator(ref_op, vocab), belief)
    assert report.to_machine() == reference.to_machine()
    assert calls == ref_calls
    return report


def assert_km_matches(apply, worlds, vocab):
    op, calls = _recording(apply)
    ref_op, ref_calls = _recording(apply)
    report = check_km(op, worlds, vocab)
    assert report.to_machine() == reference_check_km(ref_op, worlds, vocab).to_machine()
    assert calls == ref_calls
    return report


def _subsets(worlds):
    worlds = sorted(worlds)
    return [
        frozenset(w for i, w in enumerate(worlds) if mask >> i & 1)
        for mask in range(1 << len(worlds))
    ]


# ---------------------------------------------------------------------------
# Revision


RANKINGS = list(itertools.product(range(4), repeat=4))


@pytest.mark.parametrize("start", range(0, len(RANKINGS), 64))
def test_every_two_proposition_ranking(start):
    for ranks in RANKINGS[start:start + 64]:
        table = dict(zip(PQ.worlds(), ranks))
        belief = min_rank_worlds(table, table)
        report = assert_agm_matches(operator_from_ranking(table, PQ).apply, PQ, belief)
        assert report.all_passed


def _random_reviser(vocab, rng, within):
    """A deterministic operator given by a random output table on the
    input; ``within`` keeps each output inside its input."""
    outputs = {}

    def apply(belief, observed):
        key = frozenset(observed)
        if key not in outputs:
            pool = sorted(key) if within else list(vocab.worlds())
            outputs[key] = frozenset(w for w in pool if rng.random() < 0.5)
        return outputs[key]

    return apply


@pytest.mark.parametrize("vocab", [PQ, PQR], ids=["pq", "pqr"])
@pytest.mark.parametrize("within", [False, True], ids=["anywhere", "within"])
@pytest.mark.parametrize("seed", range(6))
def test_random_revision_tables(vocab, within, seed):
    rng = random.Random(seed)
    belief = frozenset(w for w in vocab.worlds() if rng.random() < 0.4)
    report = assert_agm_matches(_random_reviser(vocab, rng, within), vocab, belief)
    assert not report["R7"].passed or not report["R8"].passed


def _min_with_noise(vocab, seed):
    """Min-rank revision under a random ranking, with one input's output
    swapped for a random subset of the input: R7 and R8 break at a place
    that depends on the seed, or not at all."""
    rng = random.Random(seed)
    ranks = {w: rng.randrange(3) for w in vocab.worlds()}
    belief = min_rank_worlds(ranks, ranks)
    spoiled = frozenset(w for w in vocab.worlds() if rng.random() < 0.5)
    noise = frozenset(w for w in spoiled if rng.random() < 0.5)
    revise = operator_from_ranking(ranks, vocab).apply

    def apply(k, e):
        return noise if e == spoiled else revise(k, e)

    return apply, belief


@pytest.mark.parametrize("vocab", [PQ, PQR], ids=["pq", "pqr"])
@pytest.mark.parametrize("seed", range(12))
def test_min_rank_revision_with_one_spoiled_input(vocab, seed):
    apply, belief = _min_with_noise(vocab, seed)
    assert_agm_matches(apply, vocab, belief)


@pytest.mark.parametrize("seed", range(6))
def test_revision_outside_the_vocabulary(seed):
    rng = random.Random(seed)
    inner = _random_reviser(PQ, rng, True)
    extra = {4, 9}

    def apply(k, e):
        out = inner(k, e)
        return out | extra if len(e) == 2 else out

    assert_agm_matches(apply, PQ, frozenset({3}))


def test_four_propositions_are_refused_before_any_operator_call():
    # a failing 16-world operator would start a keyed R7/R8 sweep over
    # 65,536 x 65,536 masks
    pqrs = Vocabulary(["p", "q", "r", "s"])
    ranks = {w: bin(w).count("1") for w in pqrs.worlds()}
    apply, calls = _recording(operator_from_ranking(ranks, pqrs).apply)
    apply.mask_rows = calls.append
    with pytest.raises(PlausibilityError, match="at most 8 worlds"):
        check_agm(RevisionOperator(apply, pqrs), frozenset({0}))
    assert calls == []


# ---------------------------------------------------------------------------
# Update


def _random_updater(worlds, rng, outside=()):
    """A deterministic operator given by a random output table on pairs."""
    outputs = {}
    pool = sorted(worlds) + list(outside)

    def apply(mu, phi):
        key = (frozenset(mu), frozenset(phi))
        if key not in outputs:
            outputs[key] = frozenset(w for w in pool if rng.random() < 0.5)
        return outputs[key]

    return apply


def _pointwise(worlds, rng, spoil):
    """A union of per-world choices, which U8 holds for, with ``spoil``
    random entries overwritten."""
    choice = {}

    def per_world(w, phi):
        key = (w, phi)
        if key not in choice:
            choice[key] = frozenset(v for v in sorted(phi) if rng.random() < 0.5) or phi
        return choice[key]

    spoiled = {}
    subsets = _subsets(worlds)
    for _ in range(spoil):
        spoiled[rng.choice(subsets), rng.choice(subsets)] = frozenset(
            w for w in worlds if rng.random() < 0.5
        )

    def apply(mu, phi):
        mu, phi = frozenset(mu), frozenset(phi)
        if (mu, phi) in spoiled:
            return spoiled[mu, phi]
        return frozenset().union(*(per_world(w, phi) for w in sorted(mu)))

    return apply


@pytest.mark.parametrize("seed", range(10))
def test_random_update_tables(seed):
    rng = random.Random(seed)
    worlds = list(PQ.worlds())
    report = assert_km_matches(_random_updater(worlds, rng), worlds, PQ)
    assert not report["U8"].passed


@pytest.mark.parametrize("spoil", [0, 1, 3])
@pytest.mark.parametrize("seed", range(8))
def test_pointwise_updates_with_spoiled_entries(seed, spoil):
    rng = random.Random(seed)
    worlds = list(PQ.worlds())
    report = assert_km_matches(_pointwise(worlds, rng, spoil), worlds, PQ)
    if not spoil:
        assert report["U8"].passed


@pytest.mark.parametrize("seed", range(2))
def test_random_update_tables_on_three_propositions(seed):
    rng = random.Random(seed)
    worlds = list(PQR.worlds())
    assert_km_matches(_pointwise(worlds, rng, 1), worlds, PQR)


@pytest.mark.parametrize(
    "structure",
    [hamming_structure(PQ)] + [random_structure(PQ, random.Random(seed)) for seed in range(6)],
    ids=["hamming"] + [f"random-{seed}" for seed in range(6)],
)
def test_distance_updates(structure):
    assert assert_km_matches(update_operator(structure), structure.worlds, PQ).all_passed


@pytest.mark.parametrize("seed", range(6))
def test_updates_outside_the_checked_worlds(seed):
    rng = random.Random(seed)
    worlds = [0, 1, 3]
    assert_km_matches(_random_updater(worlds, rng, outside=(2, 7)), worlds, PQ)
    assert_km_matches(_pointwise(worlds, rng, 0), worlds, PQ)


@pytest.mark.parametrize("seed", range(6))
def test_updates_over_worlds_the_vocabulary_lacks(seed):
    rng = random.Random(seed)
    # over p q r, world 1101 reads as the checked world 101
    for vocab, worlds in ((PQ, [0, 1, 5]), (PQR, [0, 3, 5, 13])):
        ops = (_random_updater(worlds, rng), _pointwise(worlds, rng, seed % 2), lambda mu, phi: phi)
        for op in ops:
            report = assert_km_matches(op, worlds, vocab)
            assert not report["U4"].passed


def test_u4_checks_every_pair():
    # world 101 is the fourth of the list, so only observations past the
    # first eight subsets hold it; its canonical formula denotes 01
    report = assert_km_matches(lambda mu, phi: phi, [0, 1, 2, 5], PQ)
    assert report["U4"].witness == "syntax leaked for {} by {101}"


def test_a_repeated_world_is_checked_once():
    op = update_operator(hamming_structure(PQ))
    report = check_km(op, [0, 0, 1], PQ)
    assert report.all_passed
    assert report.to_machine() == check_km(op, [0, 1], PQ).to_machine()


# ---------------------------------------------------------------------------
# Reductions: each fails when one of its premises is dropped


def test_a_non_transitive_revealed_order_is_swept():
    # 00 <= 10 and 10 <= 01, but not 00 <= 01: every output is the minima
    # of the revealed order, and R8 still fails
    up = {0: {0, 2, 3}, 1: {0, 1, 3}, 2: {0, 1, 2, 3}, 3: {3}}

    def apply(belief, observed):
        return frozenset(a for a in observed if observed <= up[a])

    report = assert_agm_matches(apply, PQ, frozenset({2}))
    assert report["R8"].witness == (
        "conjunctive revision {00,01,10} & {00,10} added worlds beyond the narrowed result"
    )


def test_u5_is_swept_at_the_empty_belief():
    # unions decompose, and U5 fails for mu = {} alone
    def apply(mu, phi):
        return phi if mu or len(phi) >= 2 else frozenset()

    report = assert_km_matches(apply, list(PQ.worlds()), PQ)
    assert report["U8"].passed
    assert report["U5"].witness == "narrowing {} by {00,01} then {00} lost worlds"


def test_u5_is_swept_everywhere_when_unions_do_not_decompose():
    # every output lies in its observation, so U1 passes; U8 fails, and
    # U5 holds at {} and the singletons but not at {00,01}
    def apply(mu, phi):
        return phi if len(mu) < 2 or len(phi) >= 2 else frozenset()

    report = assert_km_matches(apply, list(PQ.worlds()), PQ)
    assert report["U1"].passed and not report["U8"].passed
    assert report["U5"].witness == "narrowing {00,01} by {00,01} then {00} lost worlds"


def test_the_revealed_order_reads_only_a_full_row():
    op, calls = _recording(lambda belief, observed: observed)
    table = OperatorTable(op, PQ.worlds())
    row = table.row(0)
    for phi in range(1, 16, 2):
        row[phi]
    seen = list(calls)
    assert revealed_order(row, 4) is None
    assert calls == seen
    for phi in range(16):
        row[phi]
    assert revealed_order(row, 4) == [15] * 4


@pytest.mark.parametrize("start", range(0, len(RANKINGS), 64))
def test_the_revealed_order_decides_every_two_proposition_ranking(start):
    for ranks in RANKINGS[start:start + 64]:
        table = OperatorTable(operator_from_ranking(dict(zip(PQ.worlds(), ranks)), PQ), PQ.worlds())
        belief = table.mask(min_rank_worlds(dict(zip(PQ.worlds(), ranks)), PQ.worlds()))
        down = revealed_order(table.row(belief), 4)
        # a ranking reveals a total preorder: a <= b iff rank a <= rank b
        assert down == [sum(1 << a for a in range(4) if ranks[a] <= ranks[b]) for b in range(4)]


# ---------------------------------------------------------------------------
# Operators that answer on masks, against a frozenset wrapper


def _no_frozenset_calls(monkeypatch):
    """Make the frozenset path of both built-in operators raise."""
    def refuse(*_):
        raise AssertionError("operator called on frozensets")

    monkeypatch.setattr(update, "min_u", refuse)
    monkeypatch.setattr(revision, "min_rank_worlds", refuse)


def assert_km_native(structure, vocab, monkeypatch):
    op = update_operator(structure)
    wrapped = check_km(lambda mu, phi: op(mu, phi), structure.worlds, vocab)
    _no_frozenset_calls(monkeypatch)
    report = check_km(op, structure.worlds, vocab)
    assert report.to_machine() == wrapped.to_machine()
    return report


@pytest.mark.parametrize(
    "structure",
    [hamming_structure(PQ)] + [random_structure(PQ, random.Random(seed)) for seed in range(8)]
    + [hamming_structure(PQ, [0, 2, 3]), random_structure(PQ, random.Random(8), [1, 2, 3])]
    + [hamming_structure(PQR, [1, 2, 4, 7]), random_structure(PQR, random.Random(9), [0, 3, 5, 6])],
    ids=["hamming"] + [f"random-{seed}" for seed in range(8)]
    + ["hamming-subset", "random-subset", "hamming-pqr-subset", "random-pqr-subset"],
)
def test_update_rows_on_masks(structure, monkeypatch):
    assert assert_km_native(structure, structure.vocab, monkeypatch).all_passed


@pytest.mark.parametrize(
    "structure",
    [hamming_structure(PQR), random_structure(PQR, random.Random(0)), random_structure(PQR, random.Random(1))],
    ids=["hamming", "random-0", "random-1"],
)
def test_update_rows_on_masks_over_three_propositions(structure, monkeypatch):
    assert_km_native(structure, PQR, monkeypatch)


def test_update_rows_only_over_the_structure_worlds():
    structure = hamming_structure(PQ)
    op, calls = _recording(update_operator(structure))
    op.mask_rows = update_operator(structure).mask_rows
    check_km(op, [0, 1, 3], PQ)
    assert calls
    calls.clear()
    check_km(op, structure.worlds, PQ)
    assert not calls


def assert_agm_native(ranks, vocab, monkeypatch, belief=None):
    op = operator_from_ranking(ranks, vocab)
    if belief is None:
        belief = min_rank_worlds(ranks, ranks)
    wrapped = check_agm(RevisionOperator(lambda k, e: op(k, e), vocab), belief)
    _no_frozenset_calls(monkeypatch)
    report = check_agm(op, belief)
    assert report.to_machine() == wrapped.to_machine()
    monkeypatch.undo()
    return report


def test_every_two_proposition_ranking_on_masks(monkeypatch):
    for ranks in RANKINGS:
        assert assert_agm_native(dict(zip(PQ.worlds(), ranks)), PQ, monkeypatch).all_passed


@pytest.mark.parametrize("seed", range(8))
def test_three_proposition_rankings_on_masks(seed, monkeypatch):
    # a world left unranked is never believed, which breaks R5
    rng = random.Random(seed)
    ranks = {w: rng.randrange(5) for w in PQR.worlds() if rng.random() < 0.9}
    report = assert_agm_native(ranks, PQR, monkeypatch)
    assert report.all_passed == (len(ranks) == 8)


@pytest.mark.parametrize(
    "ranks",
    [{0: 1, 1: 0, 2: 2, 3: 1, 7: 3}, {0: 1, 1: 2, 3: 1, 9: 0}, {0: 2, 1: 0, 2: 1, 3: 1, 6: 0}],
    ids=["outside-above", "outside-minimal", "outside-tied"],
)
def test_rankings_naming_a_world_outside_the_vocabulary(ranks, monkeypatch):
    op = operator_from_ranking(ranks, PQ)
    minimal = min_rank_worlds(ranks, ranks)
    if minimal <= PQ.all_worlds():
        assert_agm_native(ranks, PQ, monkeypatch)
    else:
        # those minima name no mask over the vocabulary: the table calls
        # the operator on frozensets
        report = check_agm(op, minimal)
        assert report.to_machine() == check_agm(
            RevisionOperator(lambda k, e: op(k, e), PQ), minimal
        ).to_machine()
    for belief in (minimal | {3}, minimal | {7}):
        for each in (op, RevisionOperator(lambda k, e: op(k, e), PQ)):
            with pytest.raises(RevisionError):
                check_agm(each, belief)


# ---------------------------------------------------------------------------
# check_km against its earlier form


def oracle_check_km(op, worlds, vocab) -> Report:
    """``check_km`` as it was before it read revealed orders and whole
    rows: U1-U4 swept pair by pair, U5 and U6 reduced to {} and the
    singletons under U8 and swept there, and U7 swept over every singleton
    and (phi, psi) pair."""
    worlds = tuple(sorted(dict.fromkeys(worlds)))
    table = OperatorTable(op, worlds)
    subsets = range(1 << len(worlds))
    singletons = [1 << i for i in range(len(worlds))]
    upd = [table.row(mu) for mu in subsets]  # upd[mu][phi]: mask of the update

    def describe(mask: int) -> str:
        return vocab.extension_str(table.ext(mask))

    low, universe = vocab.world_count - 1, frozenset(worlds)
    variant = [table.mask({w & low for w in table.ext(phi)} & universe) for phi in subsets]

    below = [[psi for psi in subsets if not psi & ~phi] for phi in subsets]
    above = [[psi for psi in subsets if not phi & ~psi] for phi in subsets]

    def u5(mus: Iterable[int]) -> Iterator[str]:
        for mu in mus:
            row = upd[mu]
            for phi in subsets:
                kept = row[phi]
                # kept inside phi: psi matters only through phi & psi, and
                # psi = phi & psi is the first psi to give each value
                for psi in below[phi] if not kept & ~phi else subsets:
                    if kept & psi & ~row[phi & psi]:
                        yield (
                            f"narrowing {describe(mu)} by {describe(phi)} then "
                            f"{describe(psi)} lost worlds"
                        )

    def u6(mus: Iterable[int]) -> Iterator[str]:
        for mu in mus:
            row = upd[mu]
            for phi in subsets:
                kept = row[phi]
                # only a psi that contains the update by phi can fail; an
                # update with a world outside the set is in none
                for psi in above[kept] if kept < len(subsets) else ():
                    if not row[psi] & ~phi and row[psi] != kept:
                        yield (
                            f"mutually entailing updates of {describe(mu)} by "
                            f"{describe(phi)}, {describe(psi)} differ"
                        )

    def u8(mus: Iterable[int]) -> Iterator[str]:
        # the test is symmetric in mu1 and mu2, so a failure with
        # mu2 < mu1 has its mirror image earlier in the sweep
        for mu1 in mus:
            row1 = upd[mu1]
            for mu2 in subsets[mu1:]:
                row12, row2 = upd[mu1 | mu2], upd[mu2]
                for phi in subsets:
                    if row12[phi] != row1[phi] | row2[phi]:
                        yield (
                            f"update of {describe(mu1)} | {describe(mu2)} by "
                            f"{describe(phi)} is not the union of the parts"
                        )

    def u8_by_singletons() -> Iterator[str]:
        yield from u8(subsets[:1])
        cols = [[row[phi] for phi in subsets] for row in upd]
        if not all(
            cols[mu | bit] == list(map(operator.or_, cols[mu], cols[bit]))
            for mu in subsets[1:] for bit in singletons
        ):
            yield from u8(subsets[1:])

    def on_singletons(sweep, unions_decompose: bool) -> Iterator[str]:
        # under U8, a failure for any mu is one for {} or a singleton
        if unions_decompose and next(sweep([0] + singletons), None) is None:
            return iter(())
        return sweep(subsets)

    report = Report("km")
    report.add_first("U1", (
        f"update {describe(mu)} by {describe(phi)} leaves the observation"
        for mu, phi in itertools.product(subsets, repeat=2) if upd[mu][phi] & ~phi
    ))
    report.add_first("U2", (
        f"update of {describe(mu)} by implied {describe(phi)} changed beliefs"
        for mu, phi in itertools.product(subsets, repeat=2)
        if not mu & ~phi and upd[mu][phi] != mu
    ))
    report.add_first("U3", (
        f"emptiness mismatch for {describe(mu)} by {describe(phi)}"
        for mu, phi in itertools.product(subsets, repeat=2)
        if (not upd[mu][phi]) != (not mu or not phi)
    ))
    report.add_first("U4", (
        f"syntax leaked for {describe(mu)} by {describe(phi)}"
        for mu, phi in itertools.product(subsets, repeat=2)
        if upd[mu][phi] != upd[mu][variant[phi]]
    ))
    # U1 passed: every pair is in the table, so U8 is decided ahead of its
    # turn with no operator call
    u8_witness = next(filter(None, u8_by_singletons()), "") if report["U1"].passed else None
    report.add_first("U5", on_singletons(u5, u8_witness == ""))
    report.add_first("U6", on_singletons(u6, u8_witness == ""))
    report.add_first("U7", (
        f"complete belief {describe(mu)}: updates by {describe(phi)} and "
        f"{describe(psi)} disagree with their disjunction"
        for mu in singletons
        for phi, psi in itertools.product(subsets, repeat=2)
        if upd[mu][phi] & upd[mu][psi] & ~upd[mu][phi | psi]
    ))
    report.add_first("U8", u8_by_singletons() if u8_witness is None else [u8_witness])
    return report



def assert_km_matches_oracle(op, worlds, vocab):
    """``check_km`` on ``op`` against the oracle on a frozenset wrapper of
    it: the same report, and for an operator without whole rows the same
    calls, in the same order."""
    ref_op, ref_calls = _recording(op)
    reference = oracle_check_km(ref_op, worlds, vocab)
    if getattr(op, "mask_rows", None):
        report = check_km(op, worlds, vocab)
    else:
        recorded, calls = _recording(op)
        report = check_km(recorded, worlds, vocab)
        assert calls == ref_calls
    assert report.to_text() == reference.to_text()
    assert report.to_machine() == reference.to_machine()
    return report


def _perturbed(op, worlds, rng, count, within):
    """``op`` with ``count`` random answers replaced by a random part of the
    observation (``within``) or of the checked worlds."""
    subsets = _subsets(worlds)
    spoiled = {}
    for _ in range(count):
        mu, phi = rng.choice(subsets), rng.choice(subsets)
        spoiled[mu, phi] = frozenset(w for w in sorted(phi if within else worlds) if rng.random() < 0.5)

    def apply(mu, phi):
        out = spoiled.get((frozenset(mu), frozenset(phi)))
        return op(mu, phi) if out is None else out

    return apply


def _spoiled_choices(structure, rng, count):
    """The union, over the worlds of the belief, of each world's update on
    the structure, with ``count`` random answers for one world replaced by a
    random part of the observation: unions still decompose."""
    op, worlds = update_operator(structure), structure.worlds
    subsets = _subsets(worlds)
    spoiled = {}
    for _ in range(count):
        w, phi = rng.choice(worlds), rng.choice(subsets)
        spoiled[w, phi] = frozenset(v for v in sorted(phi) if rng.random() < 0.5)

    def choice(w, phi):
        out = spoiled.get((w, phi))
        return op(frozenset((w,)), phi) if out is None else out

    def apply(mu, phi):
        phi = frozenset(phi)
        return frozenset().union(*(choice(w, phi) for w in mu))

    return apply


def _minima_of(relations):
    """The union, over the worlds w of the belief, of the minima of the
    observation under ``relations[w]``: the worlds a of phi that no world
    of ``relations[w][a]`` in phi precedes."""
    def apply(mu, phi):
        phi = frozenset(phi)
        return frozenset(a for w in mu for a in phi if not relations[w][a] & phi)

    return apply


def _random_relations(worlds, rng, density):
    """One random relation per origin, cycles and self-loops allowed."""
    return {
        w: {a: frozenset(b for b in worlds if rng.random() < density) for a in worlds}
        for w in worlds
    }


def _echo(mu, phi):
    return phi


def _global_hamming(mu, phi):
    # the closest worlds to the belief as a whole: unions do not decompose
    if not mu or not phi:
        return frozenset()
    dist = {w: min(bin(w ^ o).count("1") for o in mu) for w in phi}
    best = min(dist.values())
    return frozenset(w for w in phi if dist[w] == best)


def _oracle_cases():
    """(id, operator, worlds, vocabulary) for the oracle differential."""
    cases = []
    structures = [("hamming", hamming_structure(PQ))] + [
        (f"random-{seed}", random_structure(PQ, random.Random(seed))) for seed in range(8)
    ] + [
        ("hamming-subset", hamming_structure(PQ, [0, 2, 3])),
        ("random-subset", random_structure(PQ, random.Random(8), [1, 2, 3])),
        ("hamming-pqr-subset", hamming_structure(PQR, [1, 2, 4, 7])),
        ("random-pqr-subset", random_structure(PQR, random.Random(9), [0, 3, 5, 6])),
    ]
    for name, structure in structures:
        cases.append((f"distance-{name}", update_operator(structure), structure.worlds, structure.vocab))
    for seed in range(16):
        rng = random.Random(seed)
        structure = structures[seed % len(structures)][1]
        op = _perturbed(update_operator(structure), structure.worlds, rng, 1 + seed % 3, seed % 2 == 0)
        cases.append((f"perturbed-{seed}", op, structure.worlds, structure.vocab))
    for seed in range(16):
        rng = random.Random(seed)
        structure = structures[seed % len(structures)][1]
        op = _spoiled_choices(structure, rng, 1 + seed % 3)
        cases.append((f"spoiled-choice-{seed}", op, structure.worlds, structure.vocab))
    for seed in range(16):
        rng = random.Random(seed)
        worlds = list(PQ.worlds()) if seed % 4 else [0, 1, 3]
        relations = _random_relations(worlds, rng, (0.15, 0.3)[seed % 2])
        cases.append((f"relation-{seed}", _minima_of(relations), worlds, PQ))
    cases.append(("echo", _echo, list(PQ.worlds()), PQ))
    cases.append(("global-hamming", _global_hamming, list(PQ.worlds()), PQ))
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize(
    "op, worlds, vocab", [c[1:] for c in ORACLE_CASES], ids=[c[0] for c in ORACLE_CASES]
)
def test_check_km_matches_the_oracle(op, worlds, vocab):
    assert_km_matches_oracle(op, worlds, vocab)


@pytest.mark.parametrize(
    "structure",
    [hamming_structure(PQR), random_structure(PQR, random.Random(0))],
    ids=["hamming", "random-0"],
)
def test_check_km_matches_the_oracle_over_three_propositions(structure):
    assert assert_km_matches_oracle(update_operator(structure), structure.worlds, PQR).all_passed


def test_the_oracle_cases_fail_u5_u6_and_u7():
    # each fallback sweep is compared with the oracle where it finds a witness
    failed = {
        r.name for _, op, worlds, vocab in ORACLE_CASES for r in check_km(op, worlds, vocab).failures()
    }
    assert {"U5", "U6", "U7"} <= failed


@pytest.fixture
def sweeps(monkeypatch):
    """The (postulate, belief) pairs the ordered U5, U6 and U7 sweeps of
    ``check_km`` visit, in order."""
    visited = []
    for name in ("U5", "U6", "U7"):
        sweep = getattr(update, f"_{name.lower()}_sweep")

        def counted(upd, mus, describe, sweep=sweep, name=name):
            def visiting():
                for mu in mus:
                    visited.append((name, mu))
                    yield mu

            return sweep(upd, visiting(), describe)

        monkeypatch.setattr(update, f"_{name.lower()}_sweep", counted)
    return visited


@pytest.mark.parametrize(
    "structure",
    [hamming_structure(PQR)] + [random_structure(PQR, random.Random(seed)) for seed in range(4)]
    + [random_structure(PQ, random.Random(seed)) for seed in range(4)],
    ids=["hamming-pqr"] + [f"random-pqr-{seed}" for seed in range(4)]
    + [f"random-pq-{seed}" for seed in range(4)],
)
def test_distance_updates_run_no_ordered_u5_u6_or_u7_sweep(structure, sweeps):
    # every row of a distance update picks the minima of a strict partial
    # order, and {} has the empty row, so the reader decides U5-U7
    assert check_km(update_operator(structure), structure.worlds, structure.vocab).all_passed
    assert sweeps == []


def test_a_non_transitive_strict_order_declines_u6(sweeps):
    # from 00, 00 precedes every world, 01 precedes 10 and 10 precedes 11,
    # but 01 does not precede 11; every other origin precedes the rest
    worlds = list(PQ.worlds())
    relations = {w: {a: frozenset() if a == w else frozenset({w}) for a in worlds} for w in worlds}
    relations[0] = {0: frozenset(), 1: frozenset({0}), 2: frozenset({0, 1}), 3: frozenset({0, 2})}
    op = _minima_of(relations)
    table = OperatorTable(op, worlds)
    row = table.row(1)
    for phi in range(16):
        row[phi]
    down = revealed_order(row, 4)
    assert down is not None and not update._strict_partial_order(down)
    report = assert_km_matches_oracle(op, worlds, PQ)
    assert [r.name for r in report.failures()] == ["U6"]
    assert report["U6"].witness == "mutually entailing updates of {00} by {01,11}, {01,10,11} differ"
    # the oracle's sweeps are not counted: the checker swept U6 at {00} alone
    assert sweeps == [("U6", 1), ("U6", 1)]


def test_a_choice_that_breaks_gamma_fails_u7(sweeps):
    # from each world w outside phi: all of phi, but only its lowest world
    # when phi holds every other world, so 10 is kept from {01,10} and
    # {10,11} and dropped from their union
    worlds = list(PQ.worlds())

    def apply(mu, phi):
        phi = frozenset(phi)

        def choice(w):
            if w in phi:
                return frozenset({w})
            return frozenset({min(phi)}) if phi == frozenset(worlds) - {w} else phi

        return frozenset().union(*map(choice, mu))

    table = OperatorTable(apply, worlds)
    row = table.row(1)
    for phi in range(16):
        row[phi]
    assert revealed_order(row, 4) is None
    report = assert_km_matches_oracle(apply, worlds, PQ)
    assert report["U7"].witness == (
        "complete belief {00}: updates by {01,10} and {10,11} disagree with their disjunction"
    )
    assert ("U7", 1) in sweeps


def test_a_failure_of_u1_mid_sweep_keeps_the_call_sequence():
    # one answer of the bit-flip update leaves its observation: U1 stops
    # inside row {00,01}, and the checks after it read the rest in the
    # oracle's order
    hamming = update_operator(hamming_structure(PQ))

    def apply(mu, phi):
        if frozenset(mu) == {0, 1} and frozenset(phi) == {2}:
            return frozenset({1})
        return hamming(mu, phi)

    report = assert_km_matches_oracle(apply, list(PQ.worlds()), PQ)
    assert report["U1"].witness == "update {00,01} by {10} leaves the observation"
