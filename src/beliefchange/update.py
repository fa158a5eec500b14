"""Belief update over distance-based priors.

An update structure measures how hard it is to move between worlds with a
partially ordered distance.  Updating a belief extension keeps, for each
world considered possible, the closest worlds satisfying the observation.
Run systems realise this with a preferential prior that compares runs at
their first point of environmental divergence, so conditioning always
explains new observations by the latest possible change.
"""
from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .formulas import (
    TRUE,
    And,
    Atom,
    BeliefChangeError,
    Extension,
    Formula,
    Not,
    OperatorTable,
    Vocabulary,
    revealed_order,
    seq_str,
)
from .plausibility import (
    MappedMeasure,
    Mask,
    Ordering,
    PlausibilityMeasure,
    PreferentialMeasure,
    bits,
    disagreements,
    group_positions,
    mask_of,
    strict_closure,
    union,
)
from .reports import Report
from .systems import Frame, LocalState, Run, Runs, System, check_budget, first_failure, menu_system


class UpdateError(BeliefChangeError):
    pass


ZERO = 0  # designated minimum distance label


@dataclass(frozen=True)
class DistancePoset:
    """Finite strict partial order of distance labels with minimum ZERO."""

    elements: Tuple[Hashable, ...]
    strict: FrozenSet[Tuple[Hashable, Hashable]]

    @staticmethod
    def build(elements: Iterable[Hashable], strict: Iterable[Tuple[Hashable, Hashable]]) -> "DistancePoset":
        elements = tuple(dict.fromkeys(itertools.chain([ZERO], elements)))
        strict = list(strict)
        for label in itertools.chain.from_iterable(strict):
            if label not in elements:
                raise UpdateError(f"order mentions unknown label {label!r}")
        rows = strict_closure(elements, itertools.chain(strict, ((ZERO, e) for e in elements[1:])))
        if rows is None:
            raise UpdateError("distance order contains a cycle")
        pairs = frozenset((a, elements[j]) for a, row in zip(elements, rows) for j in bits(row))
        return DistancePoset(elements, pairs)

    @staticmethod
    def naturals(top: int) -> "DistancePoset":
        values = tuple(range(top + 1))
        return DistancePoset(values, frozenset((a, b) for a in values for b in values if a < b))

    def less(self, a, b) -> bool:
        return (a, b) in self.strict


class UpdateStructure:
    """Worlds plus a distance table into a pointed partial order.

    Distances may be asymmetric and incomparable; the only hard rules are
    that the zero label occurs exactly on the diagonal and every ordered
    pair of distinct worlds has an entry.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        worlds: Sequence[int],
        distance: Mapping[Tuple[int, int], Hashable],
        poset: DistancePoset,
    ):
        self.vocab = vocab
        self.worlds = tuple(sorted(dict.fromkeys(worlds)))
        if not self.worlds:
            raise UpdateError("an update structure needs at least one world")
        self.poset = poset
        self.distance = dict(distance)
        for w in self.worlds:
            self.distance.setdefault((w, w), ZERO)
        for a, b in itertools.product(self.worlds, repeat=2):
            value = self.distance.get((a, b))
            if value is None:
                raise UpdateError(
                    f"missing distance {vocab.world_str(a)} -> {vocab.world_str(b)}"
                )
            if value not in poset.elements:
                raise UpdateError(f"distance label {value!r} not in the order")
            if (value == ZERO) != (a == b):
                raise UpdateError("zero distance must hold exactly on the diagonal")
        # farther[origin][w]: mask of the worlds strictly farther from origin
        # than w (bit v stands for world v)
        less = poset.less
        self.farther: Dict[int, Dict[int, int]] = {
            o: {
                w: sum(1 << v for v in self.worlds if less(self.d(o, w), self.d(o, v)))
                for w in self.worlds
            }
            for o in self.worlds
        }

    @property
    def universe(self) -> frozenset:
        return frozenset(self.worlds)

    def d(self, a: int, b: int):
        return self.distance[(a, b)]

    def closer(self, origin: int, a: int, b: int) -> bool:
        """Strictly smaller distance from origin to a than to b, read off
        the ``farther`` table."""
        return bool(self.farther[origin][a] >> b & 1)

    def extension(self, formula: Formula) -> Extension:
        return self.vocab.extension(formula) & self.universe

    def check_worlds(self, worlds: Iterable[int]) -> None:
        for w in frozenset(worlds) - self.universe:
            raise UpdateError(f"world {self.vocab.world_str(w)} outside the structure")


def hamming_structure(vocab: Vocabulary, worlds: Optional[Sequence[int]] = None) -> UpdateStructure:
    """Bit-flip-count distances; the usual total preset."""
    if worlds is None:
        worlds = list(vocab.worlds())
    table = {
        (a, b): bin(a ^ b).count("1")
        for a, b in itertools.product(worlds, repeat=2)
    }
    return UpdateStructure(vocab, worlds, table, DistancePoset.naturals(vocab.size))


def random_structure(vocab: Vocabulary, rng: random.Random, worlds: Optional[Sequence[int]] = None) -> UpdateStructure:
    """A random valid structure: random label poset, random table entries."""
    if worlds is None:
        worlds = list(vocab.worlds())
    n_labels = rng.randint(1, 4)
    labels = [f"v{i}" for i in range(n_labels)]
    strict = set()
    for i, j in itertools.combinations(range(n_labels), 2):
        if rng.random() < 0.5:
            strict.add((labels[i], labels[j]))
    poset = DistancePoset.build(labels, strict)
    table = {
        (a, b): rng.choice(labels)
        for a, b in itertools.product(worlds, repeat=2)
        if a != b
    }
    return UpdateStructure(vocab, worlds, table, poset)


# ---------------------------------------------------------------------------
# The pointwise-minimal-change operator


def min_u(structure: UpdateStructure, origins: Iterable[int], candidates: Iterable[int]) -> Extension:
    """Worlds among the candidates that are closest to some origin: w stays
    iff an origin exists from which no candidate is strictly closer."""
    origins = frozenset(origins)
    candidates = frozenset(candidates)
    structure.check_worlds(origins | candidates)
    kept = 0  # worlds no candidate beats from some origin
    for w0 in origins:
        row, beaten = structure.farther[w0], 0
        for other in candidates:
            beaten |= row[other]
        kept |= ~beaten
    return frozenset(w for w in candidates if kept >> w & 1)


def km_update(structure: UpdateStructure, belief: Extension, observed: Extension) -> Extension:
    """Update = pointwise minimal change; unions decompose by construction."""
    return min_u(structure, belief, observed)


def update_operator(structure: UpdateStructure):
    """:func:`km_update` on the structure, as an operator on extensions.

    On the structure's own worlds it also answers whole rows on masks (see
    :class:`OperatorTable`).  ``beaten[o][b]``, the worlds some world of
    ``b`` is strictly closer to origin ``o`` than, is built for every mask
    ``b`` by one pass over its subsets.  The update of ``a`` by ``b`` keeps
    the worlds of ``b`` that some origin in ``a`` does not see beaten,
    ``b & ~(beaten[o1][b] & beaten[o2][b] & ...)``: the AND over ``a`` is
    one list per first argument, grown from ``a`` less its lowest world.
    """
    def apply(belief: Extension, observed: Extension) -> Extension:
        return km_update(structure, belief, observed)

    def mask_rows(worlds: Tuple[int, ...]):
        if worlds != structure.worlds:
            return None
        masks = range(1 << len(worlds))
        position = {w: 1 << i for i, w in enumerate(worlds)}
        beaten = []
        for o in worlds:
            farther = [union(position[v] for v in bits(structure.farther[o][w])) for w in worlds]
            table = [0]
            for b in masks[1:]:
                low = b & -b
                table.append(table[b ^ low] | farther[low.bit_length() - 1])
            beaten.append(table)
        common = {0: list(masks)}  # common[a][b]: b & the AND of beaten[o][b], o in a

        def shared(a: int) -> List[int]:
            out = common.get(a)
            if out is None:
                low = a & -a
                out = common[a] = list(map(operator.and_, shared(a ^ low), beaten[low.bit_length() - 1]))
            return out

        return lambda a: list(map(operator.xor, masks, shared(a)))

    apply.mask_rows = mask_rows
    return apply


# ---------------------------------------------------------------------------
# Postulates


@functools.cache
def _lattice(n: int) -> Tuple[List[List[int]], List[List[int]]]:
    """``below[phi]`` and ``above[phi]``: the masks over ``n`` worlds inside
    and around ``phi``, ascending; built once per world count."""
    masks = range(1 << n)
    below = [[psi for psi in masks if not psi & ~phi] for phi in masks]
    above = [[psi for psi in masks if not phi & ~psi] for phi in masks]
    return below, above


def _u5_sweep(upd, mus: Iterable[int], describe) -> Iterator[str]:
    """U5's ordered sweep over the beliefs ``mus``: (phi, psi) in mask order."""
    subsets = range(len(upd))
    below = _lattice(len(upd).bit_length() - 1)[0]
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


def _u6_sweep(upd, mus: Iterable[int], describe) -> Iterator[str]:
    """U6's ordered sweep over the beliefs ``mus``: (phi, psi) in mask order."""
    subsets = range(len(upd))
    above = _lattice(len(upd).bit_length() - 1)[1]
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


def _u7_sweep(upd, mus: Iterable[int], describe) -> Iterator[str]:
    """U7's ordered sweep over the complete beliefs ``mus``: (phi, psi) in
    mask order."""
    subsets = range(len(upd))
    for mu in mus:
        row = upd[mu]
        for phi, psi in itertools.product(subsets, repeat=2):
            if row[phi] & row[psi] & ~row[phi | psi]:
                yield (
                    f"complete belief {describe(mu)}: updates by {describe(phi)} and "
                    f"{describe(psi)} disagree with their disjunction"
                )


def _strict_partial_order(down: Sequence[int]) -> bool:
    """Whether the strict order a revealed order gives (:func:`revealed_order`),
    b < a iff not a <= b, is irreflexive and transitive."""
    n = len(down)
    greater = [((1 << n) - 1) & ~mask for mask in down]  # greater[b]: the a with b < a
    return all(mask >> b & 1 for b, mask in enumerate(down)) and not any(
        greater[a] & ~greater[b] for b in range(n) for a in bits(greater[b])
    )


def check_km(op, worlds: Sequence[int], vocab: Vocabulary) -> Report:
    """Semantic renditions of the eight update postulates, exhaustive over
    all extension pairs of the given world set (the completeness-restricted
    one only for singleton beliefs).

    Extensions are int masks, bit i standing for the i-th world in sorted
    order, and every sweep visits them in mask order.  The operator's
    results come from an :class:`OperatorTable`: whole rows when it answers
    on masks, else one call per distinct (belief, observation) pair, made
    as the checks first read it, so it must be deterministic.

    U1-U4 are decided one belief's row at a time, and only the first row
    that fails is swept pair by pair for its first witness, so a lazy row
    sees the pairs the full (mu, phi) sweep shows it, in the same order.
    U4 compares every pair with the pair whose observation is the
    extension, within the checked worlds, of the double negation of its
    canonical formula, one variant per observation.  That formula names
    each world by its proposition bits, so the variant is read off the
    worlds, ``{w & (2**n - 1) for w in phi}``, and no formula is built.
    U8's ordered (mu1, mu2, phi) sweep for mu1 = {} asks ``upd[{}] <=
    upd[mu]`` row by row; the rest is decided on (mu, singleton) pairs:
    union decomposition for every pair follows from those by induction on
    the second belief.  Only a failed decision runs the rest of the ordered
    sweep, which finds the first witness.

    Once U1 has passed, every pair has been read, so U8 is decided first,
    and a belief's row is read, with no operator call, for the order it
    reveals on pairs (:func:`revealed_order`).  A row that picks that
    order's minima on every mask satisfies U5 and U7, and if the strict
    order is also irreflexive and transitive, U6 (README, "Postulate
    checks"); an empty row satisfies all three.  U5 and U6 are swept over
    the beliefs the reader leaves open: if U8 holds, over {} and the
    singletons among them first, since a failure for any mu is then one for
    {} or a singleton, and only a failure there runs the sweep over every
    belief left open, which finds the first witness.  U7 is swept over the
    singletons left open.  A belief that holds has no witness, so skipping
    it leaves the first witness where it was.  A world listed twice is
    checked once.
    """
    worlds = tuple(sorted(dict.fromkeys(worlds)))
    table = OperatorTable(op, worlds)
    n = len(worlds)
    subsets = range(1 << n)
    singletons = [1 << i for i in range(n)]
    upd = [table.row(mu) for mu in subsets]  # upd[mu][phi]: mask of the update
    above = _lattice(n)[1]

    def describe(mask: int) -> str:
        return vocab.extension_str(table.ext(mask))

    def values(row) -> Iterable[int]:
        # in mask order, so a lazy row is read as the pair sweep reads it
        return row if isinstance(row, list) else map(row.__getitem__, subsets)

    def failing(test) -> Iterator[int]:
        return (mu for mu in subsets if test(mu, upd[mu]))

    low, universe = vocab.world_count - 1, frozenset(worlds)
    named = [table.mask({w & low} & universe) for w in worlds]
    variant = [0]
    for phi in subsets[1:]:
        bit = phi & -phi
        variant.append(variant[phi ^ bit] | named[bit.bit_length() - 1])

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
        # mu1 = {}: each row must hold the row of {}
        empty = upd[0]
        if any(
            any(map(operator.ne, values(row), map(operator.or_, values(empty), values(row))))
            for row in upd
        ):
            yield from u8(subsets[:1])
        cols = [list(values(row)) for row in upd]
        # every mu with two or more worlds is its lowest world's row OR the rest's
        if not all(
            cols[mu] == list(map(operator.or_, cols[mu ^ (mu & -mu)], cols[mu & -mu]))
            for mu in subsets[1:] if mu & (mu - 1)
        ):
            yield from u8(subsets[1:])

    report = Report("km")
    outside = [~phi for phi in subsets]
    report.add_first("U1", (
        f"update {describe(mu)} by {describe(phi)} leaves the observation"
        for mu in failing(lambda _, row: any(map(operator.and_, values(row), outside)))
        for phi in subsets if upd[mu][phi] & ~phi
    ))
    report.add_first("U2", (
        f"update of {describe(mu)} by implied {describe(phi)} changed beliefs"
        for mu in failing(lambda mu, row: any(map(mu.__ne__, map(row.__getitem__, above[mu]))))
        for phi in above[mu] if upd[mu][phi] != mu
    ))
    # not mu or not phi: the emptiness U3 asks of the row of {}, and of any other
    emptiness = ([True] * len(subsets), [True] + [False] * (len(subsets) - 1))
    report.add_first("U3", (
        f"emptiness mismatch for {describe(mu)} by {describe(phi)}"
        for mu in failing(lambda mu, row: any(map(
            operator.ne, map(operator.not_, values(row)), emptiness[mu > 0]
        )))
        for phi in subsets if (not upd[mu][phi]) != (not mu or not phi)
    ))
    report.add_first("U4", (
        f"syntax leaked for {describe(mu)} by {describe(phi)}"
        for mu in failing(lambda _, row: any(map(
            operator.ne, values(row), map(row.__getitem__, variant)
        )))
        for phi in subsets if upd[mu][phi] != upd[mu][variant[phi]]
    ))
    # U1 passed: every pair is in the table, so U8 and the revealed orders
    # are read with no operator call
    u8_witness = next(filter(None, u8_by_singletons()), "") if report["U1"].passed else None

    @functools.cache
    def revealed(mu: int) -> int:
        """What the order mu's row reveals shows it to satisfy: 2 for U5,
        U6 and U7, 1 for U5 and U7, 0 for none.  An empty row satisfies
        all three."""
        if u8_witness is None:
            return 0
        if not any(values(upd[mu])):
            return 2
        down = revealed_order(upd[mu], n)
        return 0 if down is None else 1 + _strict_partial_order(down)

    def unrevealed(sweep, level: int) -> Iterator[str]:
        def left(mus: Iterable[int]) -> List[int]:
            return [mu for mu in mus if revealed(mu) < level]

        # under U8, a failure for any mu is one for {} or a singleton
        if u8_witness == "" and next(sweep(upd, left([0] + singletons), describe), None) is None:
            return iter(())
        return sweep(upd, left(subsets), describe)

    report.add_first("U5", unrevealed(_u5_sweep, 1))
    report.add_first("U6", unrevealed(_u6_sweep, 2))
    report.add_first("U7", _u7_sweep(upd, [bit for bit in singletons if not revealed(bit)], describe))
    report.add_first("U8", u8_by_singletons() if u8_witness is None else [u8_witness])
    return report


# ---------------------------------------------------------------------------
# Run systems with change-deferring priors


class LexRunOrder:
    """Strict preference on environment sequences: compare at the first
    index where they diverge after a shared prefix; smaller step distance
    wins there, no matter what happens later."""

    def __init__(self, structure: UpdateStructure):
        self.structure = structure

    def prec(self, seq_a: Tuple[int, ...], seq_b: Tuple[int, ...]) -> bool:
        if not seq_a or not seq_b or seq_a[0] != seq_b[0]:
            return False  # no shared prefix, hence incomparable
        for i in range(1, min(len(seq_a), len(seq_b))):
            if seq_a[i] != seq_b[i]:
                return self.structure.closer(seq_a[i - 1], seq_a[i], seq_b[i])
        return False


class LexPrior(MappedMeasure):
    """Preferential prior over runs: the first-divergence order on their
    environment sequences, read through run -> environment sequence.  Cell
    c beats exactly the cells that share ``c[:t]`` and then hold a world
    farther from ``c[t-1]`` than ``c[t]``: rows come from prefix blocks.
    Cells are numbered in the order the runs first reach them, read off the
    product blocks of a :class:`Runs` view, which builds no run (an
    explicit run list is one block of one factor, the runs themselves)."""

    def __init__(self, runs: Sequence[Run], structure: UpdateStructure):
        self.structure = structure
        view = runs if isinstance(runs, Runs) else Runs([(tuple(runs),)])
        cells, image = view.env_sequences()
        structure.check_worlds(itertools.chain.from_iterable(cells))
        rows = [0] * len(cells)
        for t in range(1, max(map(len, cells), default=0)):
            heads = [c[:t + 1] for c in cells]
            blocks = {h: mask_of(ids) for h, ids in group_positions(heads).items()}
            beaten = {  # each length-(t+1) head -> the cells its last step beats
                h: union(blocks.get(h[:-1] + (v,), 0) for v in bits(structure.farther[h[-2]][h[-1]]))
                for h in blocks if len(h) > t
            }
            rows = [row | beaten.get(h, 0) for row, h in zip(rows, heads)]
        super().__init__(runs, PreferentialMeasure(tuple(cells), rows), image)


def system_from_update(
    structure: UpdateStructure, horizon: int, menu: Sequence[Formula]
) -> System:
    """All environment sequences over the structure's worlds, observed
    through the menu: the :func:`menu_system` of one group, every world.

    Every menu formula must be satisfiable in the structure, TRUE included.
    """
    for o in (TRUE, *menu):
        if not structure.extension(o):
            raise UpdateError(f"menu formula {o} is unsatisfiable in the structure")
    return menu_system(
        structure.vocab, [structure.worlds], menu, horizon, lambda runs: LexPrior(runs, structure)
    )


def _structure_of(sys: System, structure: Optional[UpdateStructure]) -> UpdateStructure:
    if structure is not None:
        return structure
    if isinstance(sys.prior, LexPrior):
        return sys.prior.structure
    raise UpdateError("system has no distance structure attached")


# ---------------------------------------------------------------------------
# Belief states via run-prefix cells


def _obs_consistent_prefixes(
    structure: UpdateStructure, observations: Sequence[Formula]
) -> List[Tuple[int, ...]]:
    exts = [structure.extension(o) for o in observations]
    if not all(exts):
        return []
    pools = [structure.worlds] + [sorted(e) for e in exts]
    return [tuple(p) for p in itertools.product(*pools)]


def minimal_prefix_cells(
    structure: UpdateStructure, observations: Sequence[Formula]
) -> List[Tuple[int, ...]]:
    """Undominated environment prefixes among those matching the
    observations; a prefix cell is strictly below the rest of its event
    exactly when some other cell beats it at the first divergence."""
    cells = _obs_consistent_prefixes(structure, observations)
    prec = LexRunOrder(structure).prec
    # cells with different first worlds never compare, and come in blocks
    blocks = [list(block) for _, block in itertools.groupby(cells, operator.itemgetter(0))]
    return [c for block in blocks for c in block if not any(prec(d, c) for d in block if d != c)]


def states(sys: System, s_a: LocalState, structure: Optional[UpdateStructure] = None) -> Extension:
    """Worlds compatible with everything believed at a local state.

    Computed from run-prefix cells: a world is kept iff it ends some
    observation-consistent prefix that no other prefix dominates.
    Unattainable observation sequences yield the empty set.
    """
    structure = _structure_of(sys, structure)
    if len(s_a) > sys.horizon:
        return frozenset()
    return frozenset(c[-1] for c in minimal_prefix_cells(structure, tuple(s_a)))


def check_update_correspondence(
    sys: System,
    structure: Optional[UpdateStructure] = None,
    sequences: Optional[Iterable[Sequence[Formula]]] = None,
) -> Report:
    """States after one more observation must equal the pointwise minimal
    change of the previous states, for every attainable sequence and menu
    formula."""
    structure = _structure_of(sys, structure)
    report = Report("update-correspondence")
    menu = list(sys.menu)
    if sequences is None:
        sequences = [()]
        for k in range(1, sys.horizon):
            sequences += list(itertools.product(menu, repeat=k))
    describe = sys.vocab.extension_str

    def mismatches():
        for seq in map(tuple, sequences):
            if len(seq) >= sys.horizon:
                continue
            here = states(sys, seq, structure)
            for psi in menu:
                stepped = states(sys, seq + (psi,), structure)
                expected = min_u(structure, here, structure.extension(psi))
                if stepped != expected:
                    yield (
                        f"after {seq_str(seq)} then {psi}: states {describe(stepped)} "
                        f"!= minimal change {describe(expected)}"
                    )

    report.add_first("STATES-STEP", mismatches())
    return report


# ---------------------------------------------------------------------------
# Observation quality


def sufficient_information(
    structure: UpdateStructure, origin: int, successor: int, observed: Formula
) -> bool:
    """The observation pins the change down: no world satisfying it is
    strictly closer to the origin than the actual successor."""
    ext = structure.extension(observed)
    if successor not in ext:
        raise UpdateError("the successor world must satisfy the observation")
    return not any(structure.closer(origin, w, successor) for w in ext)


def check_correctness_preservation(
    sys: System, structure: Optional[UpdateStructure] = None
) -> Report:
    """If beliefs are correct and the next observation carries sufficient
    information about the change, beliefs stay correct one step later."""
    structure = _structure_of(sys, structure)
    report = Report("correctness")

    def violations():
        seen = set()
        for run in sys.runs:
            for m in range(sys.horizon):
                key = (run.envs[: m + 2], run.obs[: m + 1])
                if key in seen:
                    continue
                seen.add(key)
                if run.envs[m] not in states(sys, run.local_state(m), structure):
                    continue
                if not sufficient_information(
                    structure, run.envs[m], run.envs[m + 1], run.obs[m]
                ):
                    continue
                if run.envs[m + 1] not in states(sys, run.local_state(m + 1), structure):
                    yield (
                        f"correct beliefs plus a sufficient observation {run.obs[m]} "
                        f"went wrong at time {m + 1}"
                    )

    report.add_first("PRESERVED", violations())
    return report


# ---------------------------------------------------------------------------
# Validation of the update conditions


def validate_upd(
    sys: System,
    structure: Optional[UpdateStructure] = None,
    budget: int = 100_000,
) -> Report:
    """Check the four conditions for update behaviour:

    UPD1  finitely many worlds, each a distinct truth assignment;
    UPD2  the prior is prefix-defined and consistent with a distance;
    UPD3  every sequence of satisfiable formulas is plausibility-positive;
    UPD4  observations add nothing beyond the truth of what was observed.

    UPD2 and UPD4 decide their whole stated space, part by part, comparing
    only the pairs whose outcome is not fixed in advance; a part with more
    instances than the budget, skipped ones included, raises
    :class:`BudgetError` naming the check when the sweep reaches it, so a
    witness found earlier still wins.
    The scopes that stay are stated in the text report's note.
    """
    structure = _structure_of(sys, structure)
    vocab = sys.vocab
    report = Report("upd")

    universe = structure.universe
    outside = [union(k for w, k in row.items() if w not in universe) for row in sys.index.at]
    report.add_first("UPD1", first_failure(outside, lambda i, m: (
        f"run visits world {vocab.world_str(sys.runs[i].envs[m])} outside the structure"
    )))
    report.add_first("UPD2", _check_upd2(sys, structure, budget))
    report.add_first("UPD3", _check_upd3(sys, structure))
    report.add_first("UPD4", _check_upd4(sys, structure, budget))
    report.note(
        f"scope: UPD2 compares cells of length 2 to {min(sys.horizon + 1, 3)} and menu "
        f"sequences of length at most 2; UPD3 checks state sequences of length "
        f"{_upd3_length(sys, structure)}; UPD4 takes at most one observation; the menu "
        "stands in for the full language"
    )
    return report


def _check_upd2(sys: System, structure: UpdateStructure, budget: int) -> Iterator[str]:
    """Cell pairs against the first-divergence order on the cells
    (:func:`_cell_order`), then menu-sequence events against its lift.

    When the initial-world blocks are closed (:func:`_blocks_closed`), two
    cells with different first worlds compare INCOMPARABLE, as the order
    expects, so only cells with one first world are compared;
    ``itertools.product`` lists those contiguously, so the pairs keep their
    ``combinations`` order.  When each cell of a length is then one root
    position of its own, the pairs are decided by rows (:func:`_rows_agree`)
    and swept only when some row disagrees.  The budget counts every pair.

    Every event is built and compared in the frame of the times compared
    (:meth:`RunIndex.frame`).
    """
    index = sys.index
    worlds = structure.worlds
    closed = _blocks_closed(index)
    order = functools.cache(functools.partial(_cell_order, structure))
    length = min(sys.horizon + 1, 3)
    frame = index.frame(tuple(range(length)))
    measure = frame.measure

    # consistency with the distance: cell comparisons follow the
    # first-divergence rule
    for n in range(2, length + 1):
        count = len(worlds) ** n
        check_budget("UPD2", count * (count - 1) // 2, f"pairs of length-{n} cells", budget)
        cells, rows = order(n).carrier, order(n).rows
        groups = [_prefix_event(frame, [frozenset((w,)) for w in cell]) for cell in cells]
        pairs = itertools.combinations(range(count), 2)
        if closed:
            size = count // len(worlds)  # cells per first world
            if _rows_agree(measure, groups, rows, size):
                continue
            pairs = itertools.chain.from_iterable(
                itertools.combinations(range(i, i + size), 2) for i in range(0, count, size)
            )
        for i, j in pairs:
            runs_a, runs_b = groups[i], groups[j]
            if not runs_a or not runs_b:
                continue
            got = measure.compare(runs_a, runs_b)
            lt = rows[j] >> i & 1  # cell b preferred -> a strictly below
            gt = rows[i] >> j & 1
            if lt and got is not Ordering.LESS:
                yield f"cells {cells[i]} vs {cells[j]}: expected strictly below, got {got.value}"
            elif gt and got is not Ordering.GREATER:
                yield f"cells {cells[i]} vs {cells[j]}: expected strictly above, got {got.value}"
            elif not lt and not gt and got in (Ordering.LESS, Ordering.GREATER):
                yield f"cells {cells[i]} vs {cells[j]}: unexpected strict comparison {got.value}"
    # prefix-definedness: event comparisons agree with the order's
    # dominance lift on their cells, one sequence length at a time
    menu = list(sys.menu)
    seqs = [list(itertools.product(menu, repeat=k)) for k in (1, 2) if k <= sys.horizon + 1]
    check_budget("UPD2", sum(map(len, seqs)) ** 2, "pairs of menu sequences", budget)
    for same_length in seqs:
        reference = order(len(same_length[0]))
        events = [_prefix_event(frame, map(sys.vocab.extension, seq)) for seq in same_length]
        cell_masks = [
            reference.mask(itertools.product(*map(structure.extension, seq))) for seq in same_length
        ]
        for a, b in disagreements(measure, events, reference, cell_masks, Ordering.at_least):
            got = measure.at_least(events[a], events[b])
            sa, sb = same_length[a], same_length[b]
            yield f"events {seq_str(sa)} vs {seq_str(sb)}: measure {got}, cells {not got}"


def _cell_order(structure: UpdateStructure, n: int) -> PreferentialMeasure:
    """The first-divergence order (:meth:`LexRunOrder.prec`) on the length-n
    cells, listed in ``itertools.product`` order.  Cells with different
    first worlds never compare, and that order lists the cells of one first
    world next to each other, so ``prec`` is asked of those pairs only."""
    prec = LexRunOrder(structure).prec
    cells = list(itertools.product(structure.worlds, repeat=n))
    size = len(cells) // len(structure.worlds)  # cells per first world
    rows: List[int] = []
    for start in range(0, len(cells), size):
        block = range(start, start + size)
        rows += [mask_of(j for j in block if prec(cells[i], cells[j])) for i in block]
    return PreferentialMeasure(cells, rows)


def _blocks_closed(index) -> bool:
    """Whether runs with different initial worlds never compare strictly:
    time 0's frame (:meth:`RunIndex.frame`) is the prior's root, a
    dominance lift, and the root row of each element of a block's image
    ``frame.worlds(0)[w]`` stays inside that image.  Then no element of one
    image beats one of another, so two non-empty events from different
    blocks are INCOMPARABLE (README, "Run systems")."""
    frame = index.frame((0,))
    root = frame.measure  # on the runs, a mapped measure: never a lift
    if not isinstance(root, PreferentialMeasure):
        return False
    return not any(union(root.rows[i] for i in bits(image)) & ~image for image in frame.worlds(0).values())


def _rows_agree(measure: PlausibilityMeasure, images: Sequence[int], rows: Sequence[int], size: int) -> bool:
    """Whether ``measure`` orders the cells as ``rows`` do within each block
    of ``size`` cells, when each cell's mask is one position of its own:
    each cell's row in the measure, masked to its block's positions, is its
    reference row sent to those positions.  Two such cells compare as their
    positions' row bits say, and the reference rows are asymmetric, so then
    every pair within a block gets the answer it expects; False when the
    measure has no rows (is not a :class:`PreferentialMeasure`) or some
    mask is not one position of its own."""
    if not isinstance(measure, PreferentialMeasure):
        return False
    if any(image.bit_count() != 1 for image in images) or len(set(images)) != len(images):
        return False
    for start in range(0, len(images), size):
        block = range(start, start + size)
        within = union(images[j] for j in block)
        for i in block:
            expected = union(images[j] for j in bits(rows[i]))
            if measure.rows[images[i].bit_length() - 1] & within != expected:
                return False
    return True


def _prefix_event(frame: Frame, exts: Iterable[Extension]) -> Mask:
    """The runs, in ``frame``, whose world at each time t lies in
    ``exts[t]`` (one or more times): a cell's event when each extension is
    one world, a formula sequence's otherwise."""
    event = -1
    for t, ext in enumerate(exts):
        event &= frame.env(t, ext)
    return Mask(event)


def _upd3_length(sys: System, structure: UpdateStructure) -> int:
    """The length of the state sequences UPD3 checks."""
    return min(sys.horizon + 1, 3 if len(structure.worlds) > 3 else 4)


def _check_upd3(sys: System, structure: UpdateStructure) -> Iterator[str]:
    length = _upd3_length(sys, structure)
    frame = sys.index.frame(tuple(range(length)))
    return (
        "state sequence " + ",".join(sys.vocab.world_str(w) for w in prefix) + " has no run"
        for prefix in itertools.product(structure.worlds, repeat=length)
        if not _prefix_event(frame, [frozenset((w,)) for w in prefix])
    )


def _check_upd4(sys: System, structure: UpdateStructure, budget: int) -> Iterator[str]:
    """Biconditional between observed events and their conjunction-only
    counterparts, over every formula/observation sequence with at most one
    observation.

    With no observation the two events are one mask, so nothing can
    differ.  With one observation ``o`` every event is built in the frame
    of times 0 to 2 (:meth:`RunIndex.frame`), as a formula sequence's
    event ANDed with ``o``'s observed runs or with its merely-true ones.
    When those two are one mask there, each sequence has one mask on both
    sides, and ``o`` is decided without an event: on the root this holds
    because every formula sequence's event is a union of root fibres.  The
    other observations are swept in menu order.  The instances with one
    observation are a budget part, checked before the first is swept; the
    formula sequences' events are built once, after that check.
    """
    if sys.horizon < 2:
        return
    vocab = sys.vocab
    menu = list(sys.menu)
    probes = list(dict.fromkeys(menu))
    frame = sys.index.frame((0, 1, 2))
    sides = {o: (frame.observed((o,)), frame.env(1, vocab.extension(o))) for o in probes}
    swept = [o for o in menu if sides[o][0] != sides[o][1]]
    if not swept:
        return
    check_budget("UPD4", len(menu) * len(probes) ** 6, "instances with one observation", budget)
    sequences = list(itertools.product(probes, repeat=3))
    events = [_prefix_event(frame, map(vocab.extension, seq)) for seq in sequences]
    measure = frame.measure
    for o in swept:
        observed, merely_true = ([Mask(event & side) for event in events] for side in sides[o])
        for a, b in disagreements(measure, observed, measure, merely_true, Ordering.at_least):
            yield f"formulas {seq_str(sequences[a])} vs {seq_str(sequences[b])} observing {seq_str((o,))}"


# ---------------------------------------------------------------------------
# The parked-car story


def borrowed_car():
    """Scenario: park the car with a full tank, sit inside, find it parked,
    then find the tank empty.  Deferring changes as long as possible makes
    the engine conclude the fuel vanished between the last two times, not
    that the car was driven in between.

    Returns the system together with a per-step trace of belief states and
    the final undominated run prefixes.
    """
    vocab = Vocabulary(["car_parked_outside", "fuel_tank_full"])
    car = Atom("car_parked_outside")
    fuel = Atom("fuel_tank_full")
    structure = hamming_structure(vocab)
    observations = [And(car, fuel), TRUE, car, Not(fuel)]
    menu = tuple(dict.fromkeys([TRUE] + observations))
    horizon = len(observations)
    sys = system_from_update(structure, horizon, menu)
    trace = []
    for m in range(horizon + 1):
        s_a = tuple(observations[:m])
        trace.append(
            {
                "time": m,
                "observed": None if m == 0 else observations[m - 1],
                "states": states(sys, s_a, structure),
            }
        )
    cells = minimal_prefix_cells(structure, tuple(observations))
    return sys, {
        "observations": tuple(observations),
        "steps": trace,
        "final_cells": sorted(cells),
    }
