"""Belief revision over ranked priors.

Revision operators act on model sets: a belief set is represented by its
extension, and revising by an observation keeps the lowest-ranked worlds
satisfying it.  The constructions here go both ways: an operator induces
a run system whose conditioning reproduces it, and a system induces an
operator by conditioning its prior on the runs that start in the input.
"""
from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, NoReturn, Optional, Sequence, Tuple

from .formulas import (
    FALSE,
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
    INF,
    Mask,
    Ordering,
    PlausibilityError,
    PreferentialMeasure,
    RankedMeasure,
    bits,
    disagreements,
    extension_representatives,
    mask_of,
    root_of,
    union,
)
from .reports import Report
from .systems import (
    LocalState,
    System,
    bel,
    believed,
    check_budget,
    first_failure,
    menu_system,
    runs_with_observations,
)


class RevisionError(BeliefChangeError):
    pass


@dataclass
class RevisionOperator:
    """A semantic revision function: (belief extension, input extension) ->
    revised extension, total and deterministic."""

    apply: Callable[[Extension, Extension], Extension]
    vocab: Vocabulary

    def __call__(self, belief: Extension, observed: Extension) -> Extension:
        return self.apply(frozenset(belief), frozenset(observed))

    @property
    def mask_rows(self):
        """The mask-level rows of ``apply``, if it has them (see
        :class:`OperatorTable`)."""
        return getattr(self.apply, "mask_rows", None)


EpistemicState = Tuple[Formula, ...]


def min_rank_worlds(ranks: Mapping[int, float], worlds: Iterable[int]) -> Extension:
    """The lowest-ranked of the given worlds; none if all rank INF."""
    candidates = [(ranks.get(w, INF), w) for w in worlds]
    best = min((r for r, _ in candidates), default=INF)
    if best == INF:
        return frozenset()
    return frozenset(w for r, w in candidates if r == best)


def _not_minimal(*_) -> NoReturn:
    raise RevisionError("belief extension does not equal the rank-minimal worlds of the ranking")


def _ranked_reviser(ranks: Mapping[int, float]) -> Callable[[Extension, Extension], Extension]:
    """Min-rank revision; on masks over worlds that hold the rank-minimal
    ones, the row of the rank-minimal belief keeps, for each mask ``b``,
    ``b``'s part of the lowest finite rank it meets, built from ``b`` less
    its lowest world."""
    minimal = min_rank_worlds(ranks, ranks.keys())

    def revise(belief: Extension, observed: Extension) -> Extension:
        if frozenset(belief) != minimal:
            _not_minimal()
        return min_rank_worlds(ranks, observed)

    def mask_rows(worlds: Tuple[int, ...]):
        if not minimal <= set(worlds):
            return None
        world_rank = [ranks.get(w, INF) for w in worlds]
        lowest, best = [0], [INF]  # best[b]: the lowest rank b meets
        for b in range(1, 1 << len(worlds)):
            low = b & -b
            rank, rest = world_rank[low.bit_length() - 1], b ^ low
            if rank < best[rest]:
                lowest.append(low)
                best.append(rank)
            else:
                lowest.append(lowest[rest] | low if rank == best[rest] != INF else lowest[rest])
                best.append(best[rest])

        want = mask_of(i for i, w in enumerate(worlds) if w in minimal)
        return lambda a: lowest if a == want else _not_minimal()

    revise.mask_rows = mask_rows
    return revise


def operator_from_ranking(ranks: Mapping[int, float], vocab: Vocabulary) -> RevisionOperator:
    """Min-rank revision under ``ranks``; the rank-minimal belief it demands
    is found once, not on every call."""
    return RevisionOperator(_ranked_reviser(dict(ranks)), vocab)


# ---------------------------------------------------------------------------
# Postulates, checked semantically on extensions


def check_agm(op: RevisionOperator, belief: Extension) -> Report:
    """Semantic renditions of the eight revision postulates, over every
    extension of the vocabulary.

    Belief sets are model sets, so set inclusion runs opposite to the
    syntactic direction: adding a formula to a belief set intersects its
    extension.  R6 holds by construction: the operator is only ever called
    on extensions, so two formulas with one extension get one answer.

    Extensions are int masks, bit w standing for world w, visited in the
    ``sorted`` order of their worlds.  The operator is evaluated once per
    distinct input, through an :class:`OperatorTable` filled as the sweeps
    reach each input, so it must be deterministic; an operator that answers
    on masks hands the table its whole row.  The visiting order is sorted
    once per world count.  A vocabulary of more than 8 worlds raises
    :class:`PlausibilityError` before any call.

    R7 and R8 read psi only through its key ``psi & (phi | revise[phi])``:
    that restriction leaves ``phi & psi`` and ``revise[phi] & psi`` as they
    are.  Each distinct key of a phi is decided once, in the order the
    sweep first reaches it, so the first failing key belongs to the first
    failing psi, which the witness names, and the operator sees the inputs
    the full (phi, psi) sweep would show it, in the same order.  When R1-R5
    have read every input into the table, both pass without that sweep if
    the row picks the minima of the order it reveals on pairs
    (:func:`revealed_order`) and that order is transitive (README,
    "Postulate checks").
    """
    vocab = op.vocab
    n = vocab.world_count
    if n > 8:
        raise PlausibilityError(f"check_agm sweeps at most 8 worlds, not {n}")
    table = OperatorTable(op, vocab.worlds())
    exts = _visiting_order(n)
    every = (1 << n) - 1
    belief = table.mask(belief)
    revise = table.row(belief)  # revise[phi]: mask of the revision by phi

    def describe(mask: int) -> str:
        return vocab.extension_str(table.ext(mask))

    @functools.cache
    def keys(phi: int) -> Dict[int, None]:
        keep = phi | revise[phi]
        return dict.fromkeys([psi & keep for psi in exts])

    def first_psi(phi: int, key: int) -> int:
        keep = phi | revise[phi]
        return next(psi for psi in exts if psi & keep == key)

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
    report.note("R6 holds by construction: the operator is called on extensions only")
    down = revealed_order(revise, n)  # down[c]: the worlds at most c
    transitive = down is not None and not any(
        down[b] & ~down[c] for c in range(n) for b in bits(down[c])
    )
    swept = () if transitive else exts
    report.add_first("R7", (
        f"conjunctive revision {describe(phi)} & {describe(first_psi(phi, key))} "
        "dropped compatible worlds"
        for phi in swept for key in keys(phi)
        if revise[phi] & key & ~revise[phi & key]
    ))
    report.add_first("R8", (
        f"conjunctive revision {describe(phi)} & {describe(first_psi(phi, key))} "
        "added worlds beyond the narrowed result"
        for phi in swept for key in keys(phi)
        if revise[phi] & key and revise[phi & key] & ~(revise[phi] & key)
    ))
    return report


@functools.cache
def _visiting_order(n: int) -> List[int]:
    """The masks over ``n`` worlds in the ``sorted`` order of their worlds."""
    return sorted(range(1 << n), key=bits)


# ---------------------------------------------------------------------------
# Operator -> system


def system_from_ranking(
    vocab: Vocabulary,
    world_ranks: Mapping[int, float],
    menu: Sequence[Formula],
    horizon: int,
    universe: Optional[frozenset] = None,
) -> System:
    """The static :func:`menu_system`, one group per world of ``universe``
    (default: every world), whose prior ranks runs by initial world."""
    if universe is None:
        universe = vocab.all_worlds()
    return menu_system(
        vocab,
        [(w,) for w in sorted(universe)],
        menu,
        horizon,
        lambda runs: RankedMeasure(runs, [world_ranks.get(w, INF) for w in runs.initial_worlds()]),
    )


def ranking_from_operator(op: RevisionOperator, belief: Extension) -> Dict[int, float]:
    """Recover a world ranking by probing the operator layer by layer.

    Layer 0 is the belief extension; each next layer is what the operator
    returns when revising by the formula of all still-unranked worlds.
    """
    vocab = op.vocab
    belief = frozenset(belief)
    if not belief:
        raise RevisionError("cannot rank from an inconsistent belief extension")
    ranks: Dict[int, float] = {w: 0 for w in belief}
    unranked = set(vocab.all_worlds()) - belief
    layer = 1
    while unranked:
        best = op(belief, frozenset(unranked))
        if not best or not best <= unranked:
            raise RevisionError("operator does not behave like a ranking on probes")
        for w in best:
            ranks[w] = layer
        unranked -= best
        layer += 1
    return ranks


def system_from_revision(
    op: RevisionOperator,
    belief: Extension,
    menu: Sequence[Formula],
    horizon: int,
) -> System:
    """Realise a revision operator as a run system.

    The initial belief must be consistent: conditioning can never leave an
    inconsistent state, so no system reproduces an operator that escapes
    one.  The returned system believes exactly ``belief`` at the start and
    ``op(belief, o)`` after observing any menu formula o.
    """
    if not belief:
        raise RevisionError("initial belief extension is empty (inconsistent belief set)")
    ranks = ranking_from_operator(op, belief)
    return system_from_ranking(op.vocab, ranks, menu, horizon)


# ---------------------------------------------------------------------------
# System -> operator


def revision_from_system(sys: System, validate: bool = True) -> RevisionOperator:
    """Read a revision operator off a static system.

    Revising by an extension conditions the prior on the runs that start
    in it and keeps the time-0 worlds :func:`believed` there; the operator
    is defined for the system's initial belief extension only.  With
    ``validate``, :func:`validate_rev` runs first at its default budget; a
    system too large for it is validated with ``validate_rev(sys,
    budget=...)`` and then read with ``validate=False``.
    """
    if validate:
        report = validate_rev(sys)
        if not report.all_passed:
            raise RevisionError(
                "system fails revision validation: "
                + "; ".join(r.text_line() for r in report.failures())
            )
    initial = bel(sys, ())

    def apply(belief: Extension, observed: Extension) -> Extension:
        if frozenset(belief) != initial:
            raise RevisionError("operator is induced at the system's initial belief only")
        return believed(sys, sys.index.env_event(0, observed), 0)

    return RevisionOperator(apply, sys.vocab)


def revise_at_state(sys: System, s_a: LocalState, observed: Formula) -> Extension:
    """One-step revision from an attainable non-initial state: the prior
    conditioned on the runs with the state's observations whose world at
    the state's time satisfies the input.  When the input contradicts the
    past no run carries it, the belief state collapses, and the
    consistency postulate is unsatisfiable from there.
    """
    s_a, m = tuple(s_a), len(s_a)
    prefix_runs = runs_with_observations(sys, s_a)
    if not prefix_runs:
        raise RevisionError("local state is not attainable in this system")
    return believed(sys, prefix_runs & sys.index.env_event(m, sys.vocab.extension(observed)), m)


# ---------------------------------------------------------------------------
# Epistemic states: arbitrary observation sequences


def epistemic_bel(sys: System, state: Sequence[Formula]) -> Extension:
    """Beliefs held at an arbitrary finite observation sequence.

    The sequence may be jointly inconsistent; beliefs are then read from
    its longest consistent suffix.  A sequence whose last element is
    itself inconsistent pins the agent to the absurd belief state.
    """
    state = tuple(state)
    if not state:
        return bel(sys, ())
    _, suffix_ext = _consistent_suffix(sys, state)
    return believed(sys, sys.index.env_event(0, suffix_ext), 0)


def longest_consistent_suffix(sys: System, state: Sequence[Formula]) -> Tuple[Formula, ...]:
    """The suffix actually used by :func:`epistemic_bel` (FALSE marks an
    inconsistent last element)."""
    state = tuple(state)
    if not state:
        return ()
    start, suffix_ext = _consistent_suffix(sys, state)
    return state[start:] if suffix_ext else (FALSE,)


def _consistent_suffix(sys: System, state: EpistemicState) -> Tuple[int, Extension]:
    """Start index and joint extension of the longest jointly consistent
    suffix of a non-empty state; the extension is empty when the last
    element alone is inconsistent."""
    vocab = sys.vocab
    start = len(state) - 1
    suffix_ext = vocab.extension(state[start]) & sys.universe
    while suffix_ext and start > 0:
        tighter = suffix_ext & vocab.extension(state[start - 1])
        if not tighter:
            break
        suffix_ext, start = tighter, start - 1
    return start, suffix_ext


def check_agm_epistemic(
    sys: System,
    sequences: Optional[Iterable[Sequence[Formula]]] = None,
    probes: Optional[Sequence[Formula]] = None,
) -> Report:
    """The revision postulates restated for sequence-valued epistemic
    states, with revision = append and beliefs = epistemic_bel; includes
    the extra collapsing rule for consistent back-to-back observations.
    """
    vocab = sys.vocab
    if probes is None:
        probes = list(sys.menu) or [f for f, _ in extension_representatives(vocab)]
    if sequences is None:
        menu = list(sys.menu)
        sequences = [()]
        for k in (1, 2):
            sequences += list(itertools.product(menu, repeat=k))
    sequences = [tuple(s) for s in sequences]
    report = Report("agm-epistemic")

    def ext(f: Formula) -> Extension:
        return vocab.extension(f) & sys.universe

    # every epistemic_bel the postulates share, computed once
    singles = []  # (tag, state, phi, beliefs at state, beliefs after phi)
    doubles = []  # (tag, state, phi, psi, beliefs after phi, after phi & psi)
    for state in sequences:
        bel_here = epistemic_bel(sys, state)
        for phi in probes:
            after = epistemic_bel(sys, state + (phi,))
            tag = f"E={seq_str(state)}, input {phi}"
            singles.append((tag, state, phi, bel_here, after))
            for psi in probes:
                both = epistemic_bel(sys, state + (And(phi, psi),))
                doubles.append((f"{tag}, then {psi}", state, phi, psi, after, both))

    report.add_first("R1'", (
        tag for tag, _, _, _, after in singles if not after <= vocab.all_worlds()
    ))
    report.add_first("R2'", (
        tag for tag, _, phi, _, after in singles if not after <= ext(phi)
    ))
    report.add_first("R3'", (
        tag for tag, _, phi, bel_here, after in singles
        if not after >= bel_here & ext(phi)
    ))
    report.add_first("R4'", (
        tag for tag, _, phi, bel_here, after in singles
        if bel_here & ext(phi) and not after <= bel_here & ext(phi)
    ))
    report.add_first("R5'", (
        tag for tag, _, phi, _, after in singles if (not after) != (not ext(phi))
    ))
    report.add_first("R6'", (
        tag for tag, state, phi, _, after in singles
        if epistemic_bel(sys, state + (Not(Not(phi)),)) != after
    ))
    report.add_first("R7'", (
        tag for tag, _, _, psi, after, both in doubles if not both >= after & ext(psi)
    ))
    report.add_first("R8'", (
        tag for tag, _, _, psi, after, both in doubles
        if after & ext(psi) and not both <= after & ext(psi)
    ))
    report.add_first("R9'", (
        tag for tag, state, phi, psi, _, both in doubles
        if ext(And(phi, psi)) and epistemic_bel(sys, state + (phi, psi)) != both
    ))
    return report


# ---------------------------------------------------------------------------
# Validation of the revision conditions


def validate_rev(
    sys: System,
    formula_probes: Optional[Sequence[Formula]] = None,
    obs_sequences: Optional[Sequence[Sequence[Formula]]] = None,
    max_len: int = 2,
    budget: int = 100_000,
) -> Report:
    """Check the four conditions for revision behaviour plus the weaker
    observability variant of the fourth:

    REV1  environment propositions never change along a run;
    REV2  the prior over runs is ranked (total, union takes the max);
    REV3  every admissible world is plausibility-positive initially;
    REV4  comparing formulas after observing a sequence equals comparing
          them conjoined with the sequence up front;
    REV4' the same biconditional, demanded only when the observation
          sequence itself has positive plausibility with the formula.

    Formula quantification runs over the probe set (the menu, literals,
    and the constants, by default); observation sequences default to menu
    sequences up to ``max_len``.
    """
    vocab = sys.vocab
    report = Report("rev")

    at = sys.index.at

    def rev1(i: int, m: int) -> str:
        run = sys.runs[i]
        return (
            f"environment changed from {vocab.world_str(run.envs[0])} to "
            f"{vocab.world_str(run.envs[m])} at time {m}"
        )

    moved = [union(k & ~at[0].get(w, 0) for w, k in row.items()) for row in at]
    report.add_first("REV1", first_failure(moved, rev1))
    report.add_first("REV2", _check_ranked(sys, budget))
    if isinstance(root_of(sys.prior)[0], RankedMeasure):
        report.note("REV2 holds by construction: the prior's root is a ranked measure")

    # each world's initial runs, or their root images when the index reads
    # those (RunIndex.world_images)
    measure, initial = sys.index.prior, sys.index.world_images(0)
    if initial is None:
        initial = sys.index.at[0]
    else:
        measure = root_of(measure)[0]

    def positive(w: int) -> bool:
        event = initial.get(w, 0)
        return bool(event) and not measure.is_bottom(Mask(event))

    report.add_first("REV3", (
        f"world {vocab.world_str(w)} has bottom plausibility initially"
        for w in sorted(sys.universe) if not positive(w)
    ))

    if formula_probes is None:
        formula_probes = _default_probes(sys)
    if obs_sequences is None:
        obs_sequences = _default_obs_sequences(sys, max_len)

    sweep = _check_observation_neutrality(sys, formula_probes, obs_sequences, budget)
    rev4, rev4p = itertools.tee(sweep)
    report.add_first("REV4", (tag for tag, _ in rev4))
    report.add_first("REV4'", (tag for tag, positive in rev4p if positive))
    n_probes, n_sequences = len(list(formula_probes)), len(list(obs_sequences))
    report.note(
        f"observation-neutrality quantified over {n_probes} probes "
        f"and {n_sequences} observation sequences (the menu stands in "
        "for the full language)"
    )
    return report


def _default_probes(sys: System) -> List[Formula]:
    probes: List[Formula] = [TRUE, FALSE]
    for name in sys.vocab.props:
        base, _, stamp = name.partition("@")
        atom = Atom(base, int(stamp)) if stamp else Atom(base)
        probes += [atom, Not(atom)]
    probes += list(sys.menu)
    return list(dict.fromkeys(probes))


def _default_obs_sequences(sys: System, max_len: int) -> List[Tuple[Formula, ...]]:
    menu = list(sys.menu) or list(dict.fromkeys(o for r in sys.runs for o in r.obs))
    lengths = range(1, min(max_len, sys.horizon) + 1)
    return [seq for k in lengths for seq in itertools.product(menu, repeat=k)]


def _check_ranked(sys: System, budget: int) -> Iterator[str]:
    """REV2, decided on the prior's root (README, "Command line"): a ranked
    root holds, a preferential one exactly when its order is linear on the
    root positions the runs reach (their rows, masked to them, hold 0 to
    n - 1 bits), and any other root is swept over every pair of single runs."""
    root, image = root_of(sys.index.prior)
    if isinstance(root, RankedMeasure):
        return
    if isinstance(root, PreferentialMeasure):
        positions = set(range(len(root.carrier)) if image is None else image)
        reached = sum(1 << i for i in positions)
        if {(root.rows[i] & reached).bit_count() for i in positions} != set(range(len(positions))):
            yield "incomparable singleton runs exist (prior is not total)"
        return
    prior, n = sys.index.prior, len(sys.runs)
    check_budget("REV2", n * (n - 1) // 2, "pairs of single runs", budget)
    singles = [Mask(1 << i) for i in range(n)]
    for a, b in itertools.combinations(singles, 2):
        if prior.compare(a, b) is Ordering.INCOMPARABLE:
            yield "incomparable singleton runs exist (prior is not total)"
    # totality also requires the union law
    for a, b in itertools.combinations(singles, 2):
        top = a if prior.at_least(a, b) else b
        if prior.compare(Mask(a | b), top) is not Ordering.EQUAL:
            yield "union does not take the maximum of its parts"


def _check_observation_neutrality(
    sys: System,
    probes: Sequence[Formula],
    obs_sequences: Sequence[Sequence[Formula]],
    budget: int,
) -> Iterator[Tuple[str, bool]]:
    """Shared sweep for the strong and weak forms: yields each mismatch
    with whether its conditional side has positive plausibility.

    Each probe gives two events: the conditional one evaluates the probe at
    the time of the last observation (the reading conditioning actually
    uses), the conjunction one probe-and-observations at time 0; under
    REV1 the two timings coincide.  When the index reads both times' world
    images (:meth:`RunIndex.world_images`), each event is sent to the root
    as the AND of the observed prefix's root image, mapped once per
    sequence, with the probe's image, and compared there.  The probe pairs
    after the sequences of one length form one part of the budget: a part
    past it raises :class:`BudgetError` before it is swept.
    """
    vocab, index = sys.vocab, sys.index
    prior = index.prior
    probes = list(probes)
    exts = [vocab.extension(f) for f in probes]
    obs_sequences = [tuple(seq) for seq in obs_sequences]
    parts = collections.Counter(map(len, obs_sequences))
    for seq in obs_sequences:
        m = len(seq)
        part = parts.pop(m, 0)
        if part:
            what = f"probe pairs after {m}-observation sequences"
            check_budget("REV4", part * len(probes) ** 2, what, budget)
        conj_ext = sys.universe
        for o in seq:
            conj_ext = conj_ext & vocab.extension(o)
        prefix_runs = runs_with_observations(sys, seq)
        if index.world_images(0) is None or index.world_images(m) is None:
            measure = prior
            cond_event = [Mask(prefix_runs & index.env_event(m, ext)) for ext in exts]
            conj_event = [index.env_event(0, ext & conj_ext) for ext in exts]
        else:  # the same events' root images, compared on the root
            measure, observed = root_of(prior)[0], prior.root_mask(prefix_runs)
            cond_event = [Mask(observed & index.env_image(m, ext)) for ext in exts]
            conj_event = [index.env_image(0, ext & conj_ext) for ext in exts]
        for i, j in disagreements(measure, cond_event, measure, conj_event, Ordering.at_least):
            yield (
                f"probes ({probes[i]}, {probes[j]}) after observing {seq_str(seq)}",
                not measure.is_bottom(cond_event[i]),
            )
