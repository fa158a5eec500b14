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
"""
from __future__ import annotations

import itertools
import random

import pytest

from beliefchange.formulas import (
    Not,
    OperatorTable,
    Vocabulary,
    formula_of_extension,
)
from beliefchange.plausibility import PlausibilityError
from beliefchange.reports import Report
from beliefchange import revision, update
from beliefchange.revision import (
    RevisionError,
    RevisionOperator,
    _picks_revealed_minima,
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
    assert not _picks_revealed_minima(row, 4)
    assert calls == seen
    for phi in range(16):
        row[phi]
    assert _picks_revealed_minima(row, 4)


@pytest.mark.parametrize("start", range(0, len(RANKINGS), 64))
def test_the_revealed_order_decides_every_two_proposition_ranking(start):
    for ranks in RANKINGS[start:start + 64]:
        table = OperatorTable(operator_from_ranking(dict(zip(PQ.worlds(), ranks)), PQ), PQ.worlds())
        belief = table.mask(min_rank_worlds(dict(zip(PQ.worlds(), ranks)), PQ.worlds()))
        row = table.row(belief)
        for phi in range(16):
            row[phi]
        assert _picks_revealed_minima(row, 4)


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
