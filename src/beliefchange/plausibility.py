"""Plausibility measures as set-comparison oracles over a finite carrier.

A measure never materialises plausibility values; it only answers how two
subsets of its carrier compare.  Three concrete kinds are provided:

* ranked - a natural-number rank per element (lower rank = more plausible,
  infinity reserved for the unreachable), inducing a total preorder where
  the plausibility of a set is its minimum rank;
* preferential - a strict partial order on elements, lifted to sets by
  dominance: A is at least as plausible as B iff every element of B - A is
  beaten by some element of A that B - A does not beat back;
* custom - an arbitrary comparison callable, constrained only by the
  pointedness and monotonicity invariants.

A measure read off another one through a carrier map (runs through their
environment sequence or initial world, points through their run) is a
mapped measure: a set compares as its image does, so elements with one
image are order-equivalent.
"""
from __future__ import annotations

import itertools
import math
from collections import abc
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .formulas import (
    TRUE,
    And,
    BeliefChangeError,
    Formula,
    Not,
    Or,
    Vocabulary,
    formula_of_extension,
)
from .reports import Report

INF = math.inf
# masks kept by each memo of mask images; the checkers ask about the same
# events again and again (README, "Run systems")
MEMO_MASKS = 4096


class Mask(int):
    """A set of carrier elements as an int: bit i stands for ``carrier[i]``.

    Its ``len`` is the number of elements it holds, as for any other event;
    ``&``, ``|`` and ``~`` give plain ints, so a result is wrapped again
    before it is compared.
    """

    __slots__ = ()
    __len__ = int.bit_count


Event = Union[Mask, Iterable[Hashable]]  # a carrier mask, or the elements themselves


class PlausibilityError(BeliefChangeError):
    pass


class Ordering(Enum):
    LESS = "<"
    EQUAL = "="
    GREATER = ">"
    INCOMPARABLE = "<>"

    def at_least(self) -> bool:
        return self is Ordering.GREATER or self is Ordering.EQUAL

    def at_most(self) -> bool:
        return self is Ordering.LESS or self is Ordering.EQUAL


class PlausibilityMeasure:
    """Base class: a comparison oracle over subsets of a finite carrier.

    An event is a ``Mask`` or an iterable of carrier elements; ``compare``
    turns each into a carrier mask once and hands the two masks to the
    kind's ``_compare``.
    """

    carrier: Tuple[Hashable, ...]

    def compare(self, a: Event, b: Event) -> Ordering:
        return self._compare(self.mask(a), self.mask(b))

    def _compare(self, a: int, b: int) -> Ordering:
        raise NotImplementedError

    def at_least(self, a: Event, b: Event) -> bool:
        """Pl(a) >= Pl(b)."""
        return self.compare(a, b).at_least()

    def more_plausible(self, a: Event, b: Event) -> bool:
        """Pl(a) > Pl(b)."""
        return self.compare(a, b) is Ordering.GREATER

    def is_bottom(self, a: Event) -> bool:
        return self.compare(a, Mask()) is Ordering.EQUAL

    def root_mask(self, mask: int) -> int:
        """The image of a carrier mask in the measure at the end of its
        MappedMeasure chain (see :func:`root_of`): the mask itself here."""
        return mask

    @cached_property
    def index(self) -> Dict[Hashable, int]:
        """Carrier position of each element."""
        return {e: i for i, e in enumerate(self.carrier)}

    def mask(self, event: Event) -> int:
        """The carrier mask of an event."""
        if type(event) is Mask:
            if event < 0 or event.bit_length() > len(self.carrier):
                raise PlausibilityError(
                    f"mask {event:#x} has bits outside a carrier of {len(self.carrier)}"
                )
            return event
        if isinstance(event, int):
            raise PlausibilityError(f"an int event must be a Mask, got {event!r}")
        event = tuple(event)
        index = self.index
        try:
            return mask_of([index[e] for e in event])
        except KeyError:
            extra = set(event) - index.keys()
        sample = ", ".join(sorted(map(repr, extra))[:3])
        raise PlausibilityError(f"elements outside carrier: {sample}")

    def elements(self, mask: int) -> frozenset:
        carrier = self.carrier
        return frozenset(carrier[i] for i in bits(mask))


def frozen_sequence(items: Sequence[Hashable]) -> Sequence[Hashable]:
    """``items`` as they are when they form a hashable, so unchanging,
    sequence (a tuple, or a view that builds its elements on demand, which
    a copy would build), else copied into a tuple."""
    hashable = isinstance(items, abc.Sequence) and type(items).__hash__ is not None
    return items if hashable else tuple(items)


def mask_of(indices: Iterable[int]) -> int:
    """The int with exactly the given bits set."""
    indices = list(indices)
    if not indices:
        return 0
    buf = bytearray((max(indices) >> 3) + 1)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def bits(mask: int) -> List[int]:
    """Positions of the set bits of a mask, ascending."""
    if not mask & (mask - 1):
        return [mask.bit_length() - 1] if mask else []
    digits = bin(mask)[:1:-1]  # least significant first, without "0b"
    find, out = digits.find, []
    i = find("1")
    while i >= 0:
        out.append(i)
        i = find("1", i + 1)
    return out


def group_positions(column: Sequence[Hashable]) -> Dict[Hashable, List[int]]:
    """The positions of each distinct value of ``column``, ascending; values
    in the order of their first position."""
    groups: Dict[Hashable, List[int]] = {}
    for i, value in enumerate(column):
        ids = groups.get(value)
        if ids is None:
            groups[value] = [i]
        else:
            ids.append(i)
    return groups


def union(masks: Iterable[int]) -> int:
    """The union of int masks (0 for none)."""
    out = 0
    for mask in masks:
        out |= mask
    return out


def _rank_order(ra: float, rb: float) -> Ordering:
    """How two sets whose minimum ranks are ``ra`` and ``rb`` compare."""
    if ra == rb:
        return Ordering.EQUAL
    return Ordering.GREATER if ra < rb else Ordering.LESS


class RankedMeasure(PlausibilityMeasure):
    """Totally preordered measure given by a rank per element.

    ``ranks[i]`` is the rank of ``carrier[i]``: a natural number, or
    infinity for the unreachable.  Pl(A) corresponds to the *minimum* rank
    in A, so Pl(A | B) follows the max-of-plausibilities law for unions;
    the empty set (and any set of infinite rank) sits at bottom.
    """

    def __init__(self, carrier: Sequence[Hashable], ranks: Sequence[float]):
        if isinstance(ranks, Mapping):
            raise PlausibilityError("ranks are positional: ranks[i] is the rank of carrier[i]")
        self.carrier = frozen_sequence(carrier)
        self.ranks = tuple(ranks)
        if len(self.ranks) != len(self.carrier):
            raise PlausibilityError(
                f"{len(self.ranks)} ranks for a carrier of {len(self.carrier)} elements"
            )
        for r in set(self.ranks):
            if r != INF and (r < 0 or int(r) != r):
                raise PlausibilityError(f"rank {r!r} is not a natural number or infinity")

    @cached_property
    def _levels(self) -> List[Tuple[float, int]]:
        """(rank, mask of the elements with that rank), finite ranks ascending.

        Ranks are read a stretch of equal ranks at a time: a rank's mask is
        the sum of the bit ranges [start, end) of its stretches, its ends'
        mask minus its starts' (no two of its stretches touch).
        """
        bounds: Dict[float, List[int]] = {}
        start = 0
        for rank, stretch in itertools.groupby(self.ranks):
            end = start + len(tuple(stretch))
            bounds.setdefault(rank, []).extend((start, end))
            start = end
        return sorted((r, mask_of(b[1::2]) - mask_of(b[::2])) for r, b in bounds.items() if r != INF)

    def _rank(self, a: int) -> float:
        for rank, level in self._levels:
            if level & a:
                return rank
        return INF

    def _compare(self, a: int, b: int) -> Ordering:
        return _rank_order(self._rank(a), self._rank(b))


class PreferentialMeasure(PlausibilityMeasure):
    """Dominance lift of a strict partial order on carrier elements.

    ``rows[i]`` is the mask of the elements ``carrier[i]`` is strictly
    preferred to (more normal than): the elements it beats.
    """

    def __init__(self, carrier: Sequence[Hashable], rows: Sequence[int]):
        self.carrier = tuple(carrier)
        self.rows = tuple(rows)
        if len(self.rows) != len(self.carrier):
            raise PlausibilityError(f"{len(self.rows)} rows for {len(self.carrier)} carrier elements")

    @cached_property
    def _below(self) -> Callable[[int], int]:
        """Mask -> mask of the elements that some element of it beats."""
        rows = self.rows

        @lru_cache(maxsize=MEMO_MASKS)
        def below(mask: int) -> int:
            return union(rows[i] for i in bits(mask))

        return below

    def _dominates(self, a: int, b: int) -> bool:
        """Pl(a) >= Pl(b) under the dominance rule: every element of b - a is
        beaten by an element of a that nothing in b - a beats."""
        rest = b & ~a
        if not rest:
            return True
        if not a:
            return False
        below = self._below
        anchors = a & ~below(rest)
        return not rest & ~below(anchors)

    def _compare(self, a: int, b: int) -> Ordering:
        ge_ab = self._dominates(a, b)
        ge_ba = self._dominates(b, a)
        if ge_ab and ge_ba:
            return Ordering.EQUAL
        if ge_ab:
            return Ordering.GREATER
        if ge_ba:
            return Ordering.LESS
        return Ordering.INCOMPARABLE


class CustomMeasure(PlausibilityMeasure):
    """Measure defined directly by a comparison callable on frozensets."""

    def __init__(
        self,
        carrier: Sequence[Hashable],
        compare_fn: Callable[[frozenset, frozenset], Ordering],
    ):
        self.carrier = tuple(carrier)
        self.compare_fn = compare_fn

    def _compare(self, a: int, b: int) -> Ordering:
        return self.compare_fn(self.elements(a), self.elements(b))


class MappedMeasure(PlausibilityMeasure):
    """Image of a base measure under a map from this carrier into its own.

    ``image[i]`` is the base-carrier position of ``carrier[i]``.
    Comparisons delegate to the base measure on the image sets.  The map
    need not be a bijection: elements with one image are order-equivalent,
    and a bijection makes the image order-isomorphic to the base.

    A chain of mapped measures is followed to the first measure that is not
    one, once: masks go there through one index image, and the images of
    recently seen masks are kept.
    """

    def __init__(
        self, carrier: Sequence[Hashable], base: PlausibilityMeasure, image: Sequence[int]
    ):
        self.carrier = frozen_sequence(carrier)
        self.base = base
        self.image = list(image)
        n, size = len(self.carrier), len(base.carrier)
        if len(self.image) != n:
            raise PlausibilityError(f"an image of {len(self.image)} positions for a carrier of {n}")
        if self.image and not 0 <= min(self.image) <= max(self.image) < size:
            raise PlausibilityError(f"image positions outside a base carrier of {size}")

    @cached_property
    def _target(self) -> Tuple[PlausibilityMeasure, Optional[List[int]]]:
        """The measure at the end of the chain, and the position there of each
        carrier element (None when it is the same position)."""
        base, image = self.base, self.image
        if isinstance(base, MappedMeasure):
            root, base_image = base._target
            if base_image is not None:
                image = [base_image[j] for j in image]
        else:
            root = base
        if image == list(range(len(root.carrier))):
            image = None
        return root, image

    @cached_property
    def root_mask(self) -> Callable[[int], int]:
        """The image of a carrier mask in the chain's root; recently seen
        masks keep theirs.  A mask with more elements than the image has
        positions is read off the preimage of each position, built on the
        first such mask: a position is in the image when its preimage
        meets the mask.  A sparser mask walks its bits.  A measure whose
        image is the identity onto a mapped base (a statified twin's prior)
        sends masks as the base does, so it uses the base's, memo included."""
        image = self._target[1]
        if image is None:
            return lambda mask: mask
        base = self.base
        if isinstance(base, MappedMeasure) and self.image == list(range(len(base.carrier))):
            return base.root_mask
        positions = len(set(image))
        preimages: List[Tuple[int, int]] = []

        @lru_cache(maxsize=MEMO_MASKS)
        def root_mask(mask: int) -> int:
            if mask.bit_count() <= positions:
                return mask_of([image[i] for i in bits(mask)])
            if not preimages:
                preimages.extend((k, mask_of(ids)) for k, ids in group_positions(image).items())
            return mask_of([k for k, preimage in preimages if preimage & mask])

        return root_mask

    def _compare(self, a: int, b: int) -> Ordering:
        root_mask = self.root_mask
        return self._target[0]._compare(root_mask(a), root_mask(b))


def root_of(measure: PlausibilityMeasure) -> Tuple[PlausibilityMeasure, Optional[List[int]]]:
    """The measure at the end of a MappedMeasure chain, and the position
    there of each carrier element (None when it is the same position).

    A mapped measure compares two events as its root compares their
    images, so events with one root image (``measure.root_mask``) compare
    alike against anything.
    """
    if isinstance(measure, MappedMeasure):
        return measure._target
    return measure, None


def rank_of(measure: PlausibilityMeasure, event: Event) -> float:
    """The lowest rank meeting an event under a ranked measure, read by
    index through any MappedMeasure chain in front of it; infinity when no
    element of finite rank is in the event."""
    mask = measure.root_mask(measure.mask(event))
    root = root_of(measure)[0]
    if not isinstance(root, RankedMeasure):
        raise PlausibilityError("rank_of needs a ranked measure")
    return root._rank(mask)


def _reading(measure: PlausibilityMeasure, masks: Sequence[int]) -> Tuple[Callable, List]:
    """A comparison and one key per carrier mask, such that ``measure``
    compares two masks as the comparison does their keys: on a ranked root
    the rank of each root image, on any other root the root image."""
    root = root_of(measure)[0]
    root_mask, mask = measure.root_mask, measure.mask
    keys = [root_mask(mask(Mask(k))) for k in masks]
    if isinstance(root, RankedMeasure):
        return _rank_order, [root._rank(k) for k in keys]
    return root._compare, keys


def disagreements(
    left: PlausibilityMeasure,
    left_masks: Sequence[int],
    right: PlausibilityMeasure,
    right_masks: Sequence[int],
    relation: Callable[[Ordering], Hashable],
) -> Iterator[Tuple[int, int]]:
    """Each entry pair (a, b), in row-major order, on which ``relation`` of
    ``left``'s verdict on ``(left_masks[a], left_masks[b])`` differs from
    ``right``'s on the same entries of ``right_masks`` (of the same length).

    Each mask is sent to its measure's root once (:func:`root_of`), and on
    a ranked root its rank is read once, so a pair compares two root images
    or two ranks.  When both sides read their keys alike (one root, or two
    ranked roots), an entry with one key on both sides is neutral: a pair
    of neutral entries compares alike by construction and is skipped.
    """
    left_compare, left_keys = _reading(left, left_masks)
    right_compare, right_keys = _reading(right, right_masks)
    entries, shared = range(len(left_keys)), left_compare == right_compare
    live = [not shared or lk != rk for lk, rk in zip(left_keys, right_keys)]
    live_entries = list(itertools.compress(entries, live))
    for a, a_live in zip(entries, live):
        la, ra = left_keys[a], right_keys[a]
        for b in entries if a_live else live_entries:
            if relation(left_compare(la, left_keys[b])) != relation(right_compare(ra, right_keys[b])):
                yield a, b


def strict_closure(carrier: Sequence[Hashable], pairs: Iterable[tuple]) -> Optional[List[int]]:
    """Rows of the transitive closure of strict pairs over a carrier (bit j of
    row i: ``carrier[i]`` before ``carrier[j]``), by Warshall's algorithm over
    the rows; None when it has a cycle, a row holding its own bit."""
    index = {e: i for i, e in enumerate(carrier)}
    rows = [0] * len(carrier)
    try:
        for x, y in pairs:
            rows[index[x]] |= 1 << index[y]
    except KeyError as outside:
        raise PlausibilityError(f"elements outside carrier: {outside.args[0]!r}") from None
    for k in range(len(rows)):
        bit, through = 1 << k, rows[k]
        rows = [row | through if row & bit else row for row in rows]
    return None if any(row >> i & 1 for i, row in enumerate(rows)) else rows


def from_preference(
    carrier: Sequence[Hashable], pairs: Iterable[Tuple[Hashable, Hashable]]
) -> PreferentialMeasure:
    """Lift a strict preference order (x before y = x preferred) to a measure,
    closing it under transitivity; a cycle raises :class:`PlausibilityError`."""
    carrier = tuple(carrier)
    rows = strict_closure(carrier, pairs)
    if rows is None:
        raise PlausibilityError("preference order contains a cycle")
    return PreferentialMeasure(carrier, rows)


# ---------------------------------------------------------------------------
# Axioms


def _decode_triple(code: int, n: int) -> Tuple[Mask, Mask, Mask]:
    """Three disjoint carrier masks from a base-4 code: digit i says which
    of them (if any) holds element i."""
    groups = [0, 0, 0, 0]
    for i in range(n):
        code, part = divmod(code, 4)
        groups[part] |= 1 << i
    return Mask(groups[1]), Mask(groups[2]), Mask(groups[3])


def is_qualitative(measure: PlausibilityMeasure) -> bool:
    """Check the two closure axioms behind default reasoning.

    For pairwise disjoint A, B, C: if Pl(A|B) > Pl(C) and Pl(A|C) > Pl(B)
    then Pl(A) > Pl(B|C); and a union of two bottom sets stays at bottom.
    Exhaustive over the 4^n disjoint triples of an n-element carrier.
    """
    n = len(measure.carrier)
    for code in range(4 ** n):
        a, b, c = _decode_triple(code, n)
        if not c and measure.is_bottom(a) and measure.is_bottom(b):
            if not measure.is_bottom(Mask(a | b)):
                return False
        if measure.more_plausible(Mask(a | b), c) and measure.more_plausible(Mask(a | c), b):
            if not measure.more_plausible(a, Mask(b | c)):
                return False
    return True


def check_monotonicity(measure: PlausibilityMeasure) -> bool:
    """Subsets are never more plausible than their supersets; exhaustive
    over the 3^n nested pairs of an n-element carrier."""
    n = len(measure.carrier)
    for code in range(3 ** n):  # per element: absent, in B only, or in A and B
        a = b = 0
        for i in range(n):
            code, part = divmod(code, 3)
            if part >= 1:
                b |= 1 << i
            if part == 2:
                a |= 1 << i
        if measure.compare(Mask(a), Mask(b)) not in (Ordering.LESS, Ordering.EQUAL):
            return False
    return True


# ---------------------------------------------------------------------------
# Structures: a measure over labelled elements plus conditional semantics


@dataclass
class PlausibilityStructure:
    """A measure over elements that are labelled with worlds.

    ``labeling`` maps each carrier element to a world index of ``vocab``;
    formula extensions are evaluated through the labels.
    """

    measure: PlausibilityMeasure
    labeling: Mapping[Hashable, int]
    vocab: Vocabulary

    def __post_init__(self):
        missing = [e for e in self.measure.carrier if e not in self.labeling]
        if missing:
            raise PlausibilityError("labeling must cover the whole carrier")

    def holders(self, formula: Formula) -> frozenset:
        ext = self.vocab.extension(formula)
        return frozenset(e for e in self.measure.carrier if self.labeling[e] in ext)


def conditional_holds(
    structure: PlausibilityStructure, antecedent: Formula, consequent: Formula
) -> bool:
    """Truth of 'given antecedent, consequent is plausible'.

    Holds vacuously when the antecedent's set is at bottom; otherwise the
    antecedent-and-consequent set must be strictly more plausible than the
    antecedent-and-not-consequent set.
    """
    m = structure.measure
    ante = structure.holders(antecedent)
    if m.is_bottom(ante):
        return True
    good = structure.holders(And(antecedent, consequent))
    bad = structure.holders(And(antecedent, Not(consequent)))
    return m.more_plausible(good, bad)


def believes(structure: PlausibilityStructure, formula: Formula) -> bool:
    return conditional_holds(structure, TRUE, formula)


# ---------------------------------------------------------------------------
# Closure rules of the conditional (the usual core of default reasoning)


def extension_representatives(vocab: Vocabulary) -> list:
    """One canonical formula per extension, paired with a syntactic variant.

    The conditional's truth depends only on extensions, so this pool is
    exhaustive for the semantic closure rules at any formula depth; the
    double-negation variants give the left-equivalence rule real syntax
    changes to chew on.
    """
    if vocab.world_count > 8:
        raise PlausibilityError("representative pool only built for small vocabularies")
    pool = []
    for mask in range(1 << vocab.world_count):
        ws = frozenset(w for w in vocab.worlds() if (mask >> w) & 1)
        f = formula_of_extension(ws, vocab)
        pool.append((f, Not(Not(f))))
    return pool


def check_klm_closure(structure: PlausibilityStructure) -> Report:
    """Check the closure rules of the conditional over generated formulas.

    Rules: REF (reflexivity), LLE (left logical equivalence), RW (right
    weakening), AND, OR, CM (cautious monotonicity).
    """
    vocab = structure.vocab
    pairs = extension_representatives(vocab)
    reps = [p[0] for p in pairs]

    def cond(a: Formula, b: Formula) -> bool:
        return conditional_holds(structure, a, b)

    def held_by(f: Formula) -> list:
        return [psi for psi in reps if cond(f, psi)]

    def rw():
        for f in reps:
            for psi in held_by(f):
                ext_psi = vocab.extension(psi)
                for psi2 in reps:
                    if ext_psi <= vocab.extension(psi2) and not cond(f, psi2):
                        yield f"{f} => {psi} but not the weaker {psi2}"

    report = Report("klm")
    report.add_first("REF", (
        f"{f} does not imply itself by default" for f in reps if not cond(f, f)
    ))
    report.add_first("LLE", (
        f"({f}) vs equivalent ({variant}) before {psi}"
        for f, variant in pairs
        for psi in reps if cond(f, psi) != cond(variant, psi)
    ))
    report.add_first("RW", rw())
    report.add_first("AND", (
        f"{f} => {p1} and {p2} but not their conjunction"
        for f in reps
        for p1, p2 in itertools.combinations_with_replacement(held_by(f), 2)
        if not cond(f, And(p1, p2))
    ))
    report.add_first("OR", (
        f"{f1} => {psi} and {f2} => {psi} but not from their disjunction"
        for psi in reps
        for f1, f2 in itertools.combinations_with_replacement(
            [f for f in reps if cond(f, psi)], 2
        )
        if not cond(Or(f1, f2), psi)
    ))
    report.add_first("CM", (
        f"{f} => {p1} and {p2}, but ({f}) & ({p1}) /=> {p2}"
        for f in reps
        for p1, p2 in itertools.product(held_by(f), repeat=2)
        if not cond(And(f, p1), p2)
    ))
    return report
