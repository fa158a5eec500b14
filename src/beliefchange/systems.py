"""Finite-horizon interpreted systems with a plausibility prior over runs.

A run pairs a sequence of environment worlds (length horizon+1) with the
sequence of formulas observed at times 1..horizon.  The agent's local
state at time m is the observation prefix of length m, which makes every
system synchronous with perfect recall by construction.  The prior over
runs induces, by conditioning on the runs compatible with a local state,
a plausibility measure over the points the agent considers possible.
"""
from __future__ import annotations

import functools
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, product, repeat, starmap
from math import prod
from operator import add
from typing import Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Tuple

from .formulas import (
    TRUE,
    BeliefChangeError,
    Extension,
    Formula,
    FormulaError,
    Vocabulary,
    seq_str,
)
from .plausibility import (
    MappedMeasure,
    Mask,
    Ordering,
    PlausibilityMeasure,
    PreferentialMeasure,
    RankedMeasure,
    _reading,
    bits,
    check_monotonicity,
    disagreements,
    frozen_sequence,
    group_positions,
    is_qualitative,
    mask_of,
    root_of,
    union,
)
from .reports import Report


class RunSystemError(BeliefChangeError):
    pass


class HorizonError(RunSystemError):
    pass


class BudgetError(RunSystemError):
    pass


def check_budget(check: str, count: int, what: str, budget: int) -> None:
    """Raise :class:`BudgetError` naming the check when a part of its space
    holds more instances than the budget."""
    if count > budget:
        raise BudgetError(f"{check}: {count} {what} exceed the budget of {budget}")


LocalState = Tuple[Formula, ...]


class Run(NamedTuple):
    """One possible history: environment worlds 0..H and observations 1..H.

    Its shape (one more world than observations, the system's horizon) is
    checked once per system, by :class:`System`."""

    envs: Tuple[int, ...]
    obs: Tuple[Formula, ...]

    def local_state(self, time: int) -> LocalState:
        return self.obs[:time]


Point = Tuple[Run, int]
# A block is a product of factors; a factor lists (envs, obs) segments that
# cover one span of times, and a run of the block concatenates one segment
# of each factor.  An explicit run list is one block of one factor.
Segment = Tuple[Tuple[int, ...], Tuple[Formula, ...]]
Block = Tuple[Tuple[Segment, ...], ...]


class Runs(Sequence):
    """The runs of product blocks, block by block, each block's runs in
    ``itertools.product`` order of its factors, built only when a caller
    lists them.

    Its length comes from the block sizes.  Until the runs are iterated, an
    index decodes one run of its block by mixed radix, the last factor
    varying fastest as in ``itertools.product``.  Iterating or slicing
    builds every run once, block by block, and keeps the tuple.  It
    compares, hashes and adds as that tuple does, and equals itself without
    building it.
    """

    __slots__ = ("blocks", "_sizes", "_starts", "_built")

    def __init__(self, blocks: Sequence[Block]):
        self.blocks = tuple(blocks)
        self._sizes = [[len(factor) for factor in block] for block in self.blocks]
        # _starts[b]: the number of block b's first run; the last entry is the total
        self._starts = list(accumulate(map(prod, self._sizes), initial=0))
        self._built: Optional[Tuple[Run, ...]] = None

    def _all(self) -> Tuple[Run, ...]:
        if self._built is None:
            runs: List[Run] = []
            for block in self.blocks:
                envs = _concatenations([[segment[0] for segment in factor] for factor in block])
                obs = _concatenations([[segment[1] for segment in factor] for factor in block])
                runs += map(tuple.__new__, repeat(Run), zip(envs, obs))
            self._built = tuple(runs)
        return self._built

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i):
        if self._built is not None or isinstance(i, slice):
            return self._all()[i]
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("run index out of range")
        b = bisect_right(self._starts, i) - 1  # skips empty blocks
        j, parts = i - self._starts[b], []
        for factor, size in zip(reversed(self.blocks[b]), reversed(self._sizes[b])):
            j, k = divmod(j, size)
            parts.append(factor[k])
        parts.reverse()
        return Run(sum((envs for envs, _ in parts), ()), sum((obs for _, obs in parts), ()))

    def __iter__(self) -> Iterator[Run]:
        return iter(self._all())

    def __eq__(self, other) -> bool:
        return other is self or self._all() == other

    def __hash__(self) -> int:
        return hash(self._all())

    def __add__(self, other):
        return self._all() + (other._all() if isinstance(other, Runs) else other)

    def __repr__(self) -> str:
        return f"<Runs: {len(self)} runs in {len(self.blocks)} blocks>"

    def initial_worlds(self) -> List[int]:
        """Each run's world at time 0, read off the blocks: one repeat per
        segment of a block's first factor, whose segments must start with
        time 0 (hold at least one world)."""
        worlds: List[int] = []
        for block, sizes in zip(self.blocks, self._sizes):
            width = prod(sizes[1:])
            for envs, _ in block[0]:
                worlds += [envs[0]] * width
        return worlds

    def env_sequences(self) -> Tuple[List[Tuple[int, ...]], List[int]]:
        """The runs' distinct environment sequences, in the order the runs
        first reach them, and each run's number among them, read off the
        blocks.  A block's sequences are the product of its factors'
        distinct world parts, and its runs reach them in that product order;
        a run's number within the block is its parts' numbers in mixed
        radix."""
        numbers: Dict[Tuple[int, ...], int] = {}
        image: List[int] = []
        for block in self.blocks:
            parts, combined = [], [0]
            for factor in block:
                distinct = {envs: None for envs, _ in factor}
                position = {envs: k for k, envs in enumerate(distinct)}
                ids = [position[envs] for envs, _ in factor]
                combined = [c * len(distinct) + k for c in combined for k in ids]
                parts.append(list(distinct))
            block_numbers = [numbers.setdefault(envs, len(numbers)) for envs in _concatenations(parts)]
            image += map(block_numbers.__getitem__, combined)
        return list(numbers), image


def _concatenations(factors: List[List[tuple]]) -> List[tuple]:
    """``a + b + ...`` for each choice of one part per factor, in product
    order, one factor at a time."""
    out = factors[0]
    for parts in factors[1:]:
        out = list(starmap(add, product(out, parts)))
    return out


@dataclass
class System:
    """A finite set of runs with a shared vocabulary and a prior over runs.

    ``universe`` is the set of worlds admitted as environment states (the
    full enumeration for ordinary propositional reasoning, a constrained
    subset when the consequence relation carries extra axioms, e.g. circuit
    behaviour).  ``menu`` lists the observation formulas runs draw from.
    ``blocks`` are product blocks whose :class:`Runs` must be exactly
    ``runs``: the run index is read off them, and only their run counts,
    run shapes and each block's first and last runs are checked.  When
    ``runs`` is a :class:`Runs` view of these same blocks it is their
    expansion by definition, so no run is decoded for that last check.
    They default to one block of one factor, the runs themselves.  Runs
    given as a tuple or a :class:`Runs` view are kept as they are (any
    other list is copied into a tuple), so a system built from blocks
    builds no run until a caller iterates its runs.
    """

    vocab: Vocabulary
    runs: Sequence[Run]  # a Runs view, or a tuple
    prior: PlausibilityMeasure
    horizon: int
    universe: FrozenSet[int] = None  # type: ignore[assignment]
    menu: Tuple[Formula, ...] = ()
    point_measures: Optional[Dict[LocalState, PlausibilityMeasure]] = None
    blocks: Optional[Tuple[Block, ...]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.universe is None:
            self.universe = self.vocab.all_worlds()
        self.runs = frozen_sequence(self.runs)
        if self.blocks is None:
            self.blocks = ((self.runs,),)
        shapes, count = set(), 0
        for block in self.blocks:
            shapes |= _block_shapes(block)
            count += prod(map(len, block))
        if count != len(self.runs):
            raise RunSystemError(f"the blocks hold {count} runs, not {len(self.runs)}")
        if any(len_envs != len_obs + 1 for len_envs, len_obs in shapes):
            raise RunSystemError("a run needs exactly one more environment state than observations")
        if any(len_obs != self.horizon for _, len_obs in shapes):
            raise RunSystemError("all runs must share the system horizon")
        own_view = isinstance(self.runs, Runs) and self.runs.blocks == self.blocks
        offset = 0
        for block in () if own_view else self.blocks:
            size = prod(map(len, block))
            for k, i in ((0, offset), (-1, offset + size - 1)) if size else ():
                parts = [factor[k] for factor in block]
                run = (sum((envs for envs, _ in parts), ()), sum((obs for _, obs in parts), ()))
                if self.runs[i] != run:
                    raise RunSystemError(f"run {i} is not the one its block expands to")
            offset += size
        self._conditioned: Dict[LocalState, PlausibilityMeasure] = {}
        self._bel_cache: Dict[LocalState, Extension] = {}
        self._cond_cache: Dict[tuple, bool] = {}

    # -- basic structure -----------------------------------------------------

    def points_with_local_state(self, s_a: LocalState) -> Tuple[Point, ...]:
        m, runs = len(s_a), self.runs
        return tuple((runs[i], m) for i in bits(self.index.observed(s_a)))

    def plaus_at(self, s_a: LocalState) -> PlausibilityMeasure:
        if self.point_measures is not None and s_a in self.point_measures:
            return self.point_measures[s_a]
        cached = self._conditioned.get(s_a)
        if cached is None:
            cached = _conditioned_prior(self, s_a)
            self._conditioned[s_a] = cached
        return cached

    @cached_property
    def index(self) -> "RunIndex":
        return RunIndex(self)


def _block_shapes(block: Block) -> set:
    """The (len envs, len obs) pairs of a block's runs."""
    shapes = {(0, 0)}
    for factor in block:
        lengths = {(len(envs), len(obs)) for envs, obs in factor}
        shapes = {(e + de, o + do) for e, o in shapes for de, do in lengths}
    return shapes


def menu_system(
    vocab: Vocabulary,
    groups: Sequence[Sequence[int]],
    menu: Sequence[Formula],
    horizon: int,
    make_prior: Callable[[Runs], PlausibilityMeasure],
) -> System:
    """Runs that start at a world of a group, then at each step move to a
    world of the same group and observe a menu formula true there, under
    the prior ``make_prior`` builds from them.

    Each group is one product block: its worlds at time 0, then one step
    factor per time listing each world with each menu formula true at it.
    One group per world holds the environment fixed (revision); one group
    of every world lets it change at every step (update).  The universe is
    the union of the groups.  Observing carries no information beyond the
    observed formulas' truth; TRUE is forced into the menu, first, so every
    observation prefix extends to a full run.
    """
    menu = tuple(dict.fromkeys((TRUE,) + tuple(menu)))
    exts = [(o, vocab.extension(o)) for o in menu]
    blocks = []
    for group in groups:
        start = tuple(((w,), ()) for w in group)
        step = tuple(((w,), (o,)) for w in group for o, ext in exts if w in ext)
        blocks.append((start,) + (step,) * horizon)
    runs = Runs(blocks)
    return System(
        vocab=vocab,
        runs=runs,
        prior=make_prior(runs),
        horizon=horizon,
        universe=frozenset().union(*groups),
        menu=menu,
        blocks=tuple(blocks),
    )


class Frame(NamedTuple):
    """The coordinates a checker builds and compares run-set events in
    (:meth:`RunIndex.frame`): ``send`` maps a run mask there, ``measure``
    compares what it maps, ``worlds(t)`` maps each world to the mask of
    its runs at time t, ``env(t, ext)`` is the mask of the runs whose world
    at time t lies in ``ext``, kept per (time, extension), and
    ``observed(s_a)`` the mask of the runs whose observations start with
    ``s_a``.  Each is read only at the times the frame was made for."""

    measure: PlausibilityMeasure
    send: Callable[[int], int]
    worlds: Callable[[int], Dict[int, int]]
    env: Callable[[int, Extension], Mask]
    observed: Callable[[Sequence[Formula]], int]


def _as_is(mask: int) -> int:
    return mask


class RunIndex:
    """A system's run-set events as int masks: bit i stands for ``runs[i]``.

    Built once per system, on first use: one mask per (time, world) and
    one per (time, observation), read off the system's blocks.  Each time
    column of a factor is grouped once; a group's segment positions become
    a block mask by stretching each position to the runs it stands for
    (the product W of the later factors' sizes) and repeating that once
    per choice of the earlier factors.  That pattern is built once per
    factor, at its block's offset, so a group of one position is one shift
    of it, and an explicit run list (W = 1, one repeat) costs one grouping
    of each time column.  Row entries become :class:`Mask` once, after
    every block is ORed in.  The runs of an observation prefix are ANDed
    from the observation columns when :meth:`observed` first asks, and
    :attr:`prefix` lists every attainable prefix when first read.  Every
    other event is ``&`` and ``|`` of those.  The root image of each
    (time, world) mask is built when :meth:`root_blocks` first asks, and
    :meth:`frame` decides, once per tuple of times, whether the checkers
    build and compare those times' events on the prior's root or on the
    runs.
    """

    def __init__(self, sys: System):
        runs = sys.runs
        self.full = (1 << len(runs)) - 1
        # at[m][w]: the runs at world w at time m; obs_at[m][o]: the runs
        # whose observation at time m is o (none at time 0).  Blocks come in
        # run order and a factor's groups by first position, so each row
        # lists its values in the order the runs first reach them.
        at: List[Dict[int, int]] = [{} for _ in range(sys.horizon + 1)]
        obs_at: List[Dict[Formula, int]] = [{} for _ in range(sys.horizon + 1)]
        offset = 0
        for block in sys.blocks:
            sizes = [len(factor) for factor in block]
            size = prod(sizes)
            if not size:
                continue
            before, env_time, obs_time = 1, 0, 1
            for factor, n in zip(block, sizes):
                width = size // (before * n)
                span = n * width
                # position 0 stretched to its W runs, once per earlier
                # choice, at the block's offset; position j is this << W * j
                spread = ((1 << width) - 1) * (((1 << span * before) - 1) // ((1 << span) - 1)) << offset
                for rows, time, parts in (
                    (at, env_time, [segment[0] for segment in factor]),
                    (obs_at, obs_time, [segment[1] for segment in factor]),
                ):
                    for k in range(len(parts[0])):
                        row = rows[time + k]
                        for value, ids in group_positions([part[k] for part in parts]).items():
                            if len(ids) == 1:
                                mask = spread << width * ids[0]
                            else:
                                # an explicit list (W = 1, one repeat, offset
                                # 0) costs what a scan does
                                mask = mask_of(map(width.__mul__, ids) if width > 1 else ids)
                                if spread > 1:
                                    mask *= spread
                            old = row.get(value)
                            row[value] = mask if old is None else old | mask
                env_time += len(factor[0][0])
                obs_time += len(factor[0][1])
                before *= n
            offset += size
        # in place, so each plain mask is freed as its Mask replaces it
        for row in at + obs_at:
            for value in row:
                row[value] = Mask(row[value])
        self.at, self.obs_at = at, obs_at
        self._observed: Dict[LocalState, Mask] = {(): Mask(self.full)}
        # the prior read on these masks
        self.prior = sys.prior
        if sys.prior.carrier != runs:
            # a run outside the prior's carrier gets -1, which MappedMeasure rejects
            image = [sys.prior.index.get(run, -1) for run in runs]
            self.prior = MappedMeasure(runs, sys.prior, image)
        self._env_events: Dict[Tuple[int, FrozenSet[int]], Mask] = {}
        self._root_events: Dict[Tuple[int, FrozenSet[int]], Mask] = {}
        self._root_blocks: Dict[int, Optional[Dict[int, int]]] = {}
        self._frames: Dict[Tuple[int, ...], Frame] = {}

    def root_blocks(self, time: int) -> Optional[Dict[int, int]]:
        """World -> the root image (:func:`root_of`) of its runs at ``time``;
        None when two worlds' images meet.  Built once per time."""
        if time not in self._root_blocks:
            images = {w: self.prior.root_mask(runs) for w, runs in self.at[time].items()}
            disjoint = sum(map(int.bit_count, images.values())) == union(images.values()).bit_count()
            self._root_blocks[time] = images if disjoint else None
        return self._root_blocks[time]

    def frame(self, times: Tuple[int, ...]) -> Frame:
        """Where to build and compare the events of ``times``, kept per
        tuple: the prior's root when :meth:`root_blocks` is not None at
        every one of them, else the runs.  On the root each world's runs
        at those times are a union of root fibres, so the ``&`` and ``|``
        of their images are the images of the ``&`` and ``|`` of their runs
        (README, "Run systems").  A prior that is its own root takes the
        root, whose masks are the run masks."""
        frame = self._frames.get(times)
        if frame is None:
            # bound to the index's tables, not to the index, so a kept
            # frame holds no reference cycle
            observed = functools.partial(_observed_event, self.obs_at, self._observed)
            if any(self.root_blocks(t) is None for t in times):
                env = functools.partial(_union_event, self.at, self._env_events)
                frame = Frame(self.prior, _as_is, self.at.__getitem__, env, observed)
            else:
                send, blocks = self.prior.root_mask, self._root_blocks
                env = functools.partial(_union_event, blocks, self._root_events)
                sent = lambda s_a: send(observed(s_a))
                frame = Frame(root_of(self.prior)[0], send, blocks.__getitem__, env, sent)
            self._frames[times] = frame
        return frame

    def observed(self, s_a: Sequence[Formula]) -> Mask:
        """Runs whose observation sequence starts with ``s_a``: the runs of
        its prefix one shorter, ``&`` the observation column of its last
        time, kept once asked."""
        return _observed_event(self.obs_at, self._observed, s_a)

    @cached_property
    def prefix(self) -> Dict[LocalState, Mask]:
        """Every observation prefix some run has, with its runs, in the
        order the runs first reach them: by lowest run, then by length.
        Built on first use, one time at a time: a prefix of length m + 1
        is one of length m, kept when some run has it, and an observation
        of time m + 1, so the listing costs at most the sum over m of
        |prefixes of length m| * |observations at time m + 1| ANDs."""
        level = [()] if self.full else []
        reached = list(level)
        for row in self.obs_at[1:]:
            level = [s_a + (o,) for s_a in level for o in row if self.observed(s_a + (o,))]
            reached += level
        observed = self._observed
        reached.sort(key=lambda s_a: (_lowest(observed[s_a]), len(s_a)))
        return {s_a: observed[s_a] for s_a in reached}

    def env_event(self, time: int, ext: Extension) -> Mask:
        """Runs whose environment world at ``time`` lies in ``ext``, kept
        per (time, extension)."""
        return _union_event(self.at, self._env_events, time, ext)


def _observed_event(obs_at: List[Dict[Formula, int]], kept: Dict[LocalState, Mask], s_a) -> Mask:
    """:meth:`RunIndex.observed` on the observation columns ``obs_at``,
    keeping each prefix's runs in ``kept``."""
    s_a = tuple(s_a)
    event = kept.get(s_a)
    if event is None:
        if len(s_a) >= len(obs_at):
            return Mask(0)
        column = obs_at[len(s_a)].get(s_a[-1], 0)
        event = kept[s_a] = Mask(_observed_event(obs_at, kept, s_a[:-1]) & column)
    return event


def _union_event(rows, kept: Dict[Tuple[int, FrozenSet[int]], Mask], time: int, ext: Extension) -> Mask:
    """The union of the masks ``rows[time]`` holds for the worlds of
    ``ext``, kept in ``kept`` per (time, extension)."""
    key = (time, ext)
    event = kept.get(key)
    if event is None:
        row, event = rows[time], 0
        for w in ext:
            event |= row.get(w, 0)
        event = kept[key] = Mask(event)
    return event


def first_failure(failing: Sequence[int], describe: Callable[[int, int], str]) -> Iterator[str]:
    """The witness of the first failing point, run-major as the checkers
    visit points: ``failing[m]`` is the mask of the runs that fail at time
    m, and ``describe(i, m)`` writes the witness for run i at time m.
    Yields nothing when no run fails."""
    every = union(failing)
    if every:
        i = _lowest(every)
        yield describe(i, next(m for m, runs in enumerate(failing) if runs >> i & 1))


def _conditioned_prior(sys: System, s_a: LocalState) -> MappedMeasure:
    """The prior read through point -> run on the points of a local state;
    the run numbers are the positions in the run-numbered prior."""
    m, runs, index = len(s_a), sys.runs, sys.index
    ids = bits(index.observed(s_a))
    return MappedMeasure(tuple((runs[i], m) for i in ids), index.prior, ids)


def indistinguishable(sys: System, p1: Point, p2: Point) -> bool:
    """Same observation prefix; synchrony makes equal times necessary."""
    r1, m1 = p1
    r2, m2 = p2
    return r1.local_state(m1) == r2.local_state(m2)


# ---------------------------------------------------------------------------
# Beliefs


def bel(sys: System, s_a: LocalState) -> Extension:
    """Model set of the agent's belief set at a local state: the worlds
    :func:`believed` keeps at the state's time, given the runs with the
    state's observations.  Unattainable local states, and states whose
    runs all sit at bottom, give the empty extension (the agent believes
    everything, including falsity).  A state with an entry in
    ``point_measures`` is read off that measure's points instead.
    """
    cached = sys._bel_cache.get(s_a)
    if cached is not None:
        return cached
    override = (sys.point_measures or {}).get(s_a)
    if override is None:
        result = believed(sys, sys.index.observed(s_a), len(s_a))
    else:
        points = override.carrier
        by_world = group_positions([run.envs[t] for run, t in points])
        rows = {w: mask_of(ids) for w, ids in by_world.items()}
        result = _not_disbelieved(override, (1 << len(points)) - 1, rows)
    sys._bel_cache[s_a] = result
    return result


def believed(sys: System, event: int, time: int) -> Extension:
    """The worlds at ``time`` that the prior, conditioned on the run mask
    ``event``, does not disbelieve: a world survives when the event's runs
    outside it are not strictly more plausible than its runs in it.  Empty
    when the event is empty or sits at bottom.

    The event is sent once to the time's frame (:meth:`RunIndex.frame`)
    and read there against each world's mask: on the prior's root the
    worlds' images split the event's image as the worlds split its runs.
    """
    if not event:
        return frozenset()
    frame = sys.index.frame((time,))
    return _not_disbelieved(frame.measure, frame.send(event), frame.worlds(time))


def _not_disbelieved(measure: PlausibilityMeasure, event: int, rows: Dict[int, int]) -> Extension:
    """The worlds w, of ``rows`` (world -> carrier mask), whose part of
    ``event`` the rest of the event does not beat under ``measure``; each
    side is read once, as :func:`disagreements` reads its entries.  On a
    ranked root rank(event) = min(rank(part), rank(rest)), so the rest
    beats a part exactly when the part's rank exceeds the event's: one rank
    is read per world, and one for the event."""
    if measure.is_bottom(Mask(event)):
        return frozenset()
    parts = {w: holders for w, row in rows.items() if (holders := event & row)}
    if isinstance(root_of(measure)[0], RankedMeasure):
        _, ranks = _reading(measure, [event, *parts.values()])
        return frozenset(w for w, rank in zip(parts, ranks[1:]) if rank == ranks[0])
    compare, keys = _reading(measure, [side for h in parts.values() for side in (event & ~h, h)])
    beaten = map(compare, keys[::2], keys[1::2])
    return frozenset(w for w, order in zip(parts, beaten) if order is not Ordering.GREATER)


# ---------------------------------------------------------------------------
# The temporal-epistemic language and its model checker


class KptFormula:
    """Marker base for modal/temporal nodes layered over plain formulas."""

    __slots__ = ()


@dataclass(frozen=True)
class Knows(KptFormula):
    sub: object


@dataclass(frozen=True)
class Believes(KptFormula):
    sub: object


@dataclass(frozen=True)
class Next(KptFormula):
    sub: object


@dataclass(frozen=True)
class Conditional(KptFormula):
    antecedent: object
    consequent: object


@dataclass(frozen=True)
class Learn(KptFormula):
    observed: Formula

    def __post_init__(self):
        if isinstance(self.observed, KptFormula):
            raise RunSystemError("learn takes a plain environment formula")


@dataclass(frozen=True)
class KNot(KptFormula):
    sub: object


@dataclass(frozen=True)
class KAnd(KptFormula):
    left: object
    right: object


def model_check(sys: System, point: Point, formula) -> bool:
    """Recursive truth at a point.

    Plain formulas read the environment world; knowledge quantifies over
    indistinguishable points; the next-step operator advances time (and
    refuses to run off the horizon); belief abbreviates the conditional
    with a trivially true antecedent; learn(phi) is true exactly when the
    last observation is syntactically phi.
    """
    run, m = point
    if isinstance(formula, Formula):
        return sys.vocab.satisfies(run.envs[m], formula)
    if isinstance(formula, KNot):
        return not model_check(sys, point, formula.sub)
    if isinstance(formula, KAnd):
        return model_check(sys, point, formula.left) and model_check(sys, point, formula.right)
    if isinstance(formula, Learn):
        return m >= 1 and run.obs[m - 1] == formula.observed
    if isinstance(formula, Knows):
        s_a = run.local_state(m)
        return all(
            model_check(sys, p, formula.sub) for p in sys.points_with_local_state(s_a)
        )
    if isinstance(formula, Next):
        if m + 1 > sys.horizon:
            raise HorizonError(f"next-step operator at time {m} exceeds horizon {sys.horizon}")
        return model_check(sys, (run, m + 1), formula.sub)
    if isinstance(formula, Believes):
        return model_check(sys, point, Conditional(TRUE, formula.sub))
    if isinstance(formula, Conditional):
        # conditionals depend on the point only through its local state
        s_a = run.local_state(m)
        key = (s_a, formula.antecedent, formula.consequent)
        cached = sys._cond_cache.get(key)
        if cached is not None:
            return cached
        measure = sys.plaus_at(s_a)
        points = measure.carrier
        ante = _satisfying_points(sys, points, (1 << len(points)) - 1, formula.antecedent)
        if measure.is_bottom(ante):
            result = True
        else:
            good = _satisfying_points(sys, points, ante, formula.consequent)
            result = measure.compare(good, Mask(ante & ~good)) is Ordering.GREATER
        sys._cond_cache[key] = result
        return result
    raise RunSystemError(f"unknown formula node {formula!r}")


def _satisfying_points(sys: System, points: Sequence[Point], within: int, formula) -> Mask:
    """The mask of the points picked by ``within`` at which the formula holds."""
    if isinstance(formula, Formula):
        ext = sys.vocab.extension(formula)
        holds = lambda p: p[0].envs[p[1]] in ext
    else:
        holds = lambda p: model_check(sys, p, formula)
    return Mask(mask_of([i for i in bits(within) if holds(points[i])]))


# ---------------------------------------------------------------------------
# Run-set events


def runs_with_observations(sys: System, observations: Sequence[Formula]) -> Mask:
    """Mask of the runs whose observation sequence starts with the given
    formulas."""
    return sys.index.observed(observations)


# ---------------------------------------------------------------------------
# Conditioning consistency (the step-to-step local rule)


def check_prior_local_rule(sys: System, budget: int = 100_000) -> Report:
    """Verify the step-to-step conditioning rule: for every step from a
    time-m local state to a time-m+1 one and all subset pairs (A, B) of the
    later state's points, A is at most as plausible as B exactly when the
    time-m predecessor sets compare the same way under the time-m measure.

    A measure obtained by conditioning the prior (BCS5) satisfies the rule
    by construction, since both sides reduce to the same prior comparison.
    So only the steps into or out of a local state with an entry in
    ``point_measures`` are swept; a step with an override that is not over
    its state's points fails, and a swept state whose 4^n subset pairs
    exceed ``budget`` raises :class:`BudgetError`.

    The sweep stops at the first local state that breaks the rule, so a
    local state past it that exceeds the budget raises no
    :class:`BudgetError`.
    """
    report = Report("prior-local-rule")
    report.add_first("LOCAL-RULE", _local_rule_failures(sys, budget))
    report.note("steps without a point-measure override hold by construction: not swept")
    return report


def _local_rule_failures(sys: System, budget: int) -> Iterator[str]:
    overrides = sys.point_measures or {}
    for s_next in sys.index.prefix:
        if not s_next:
            continue
        s_prev = s_next[:-1]
        if s_prev not in overrides and s_next not in overrides:
            continue
        later, earlier = sys.plaus_at(s_next), sys.plaus_at(s_prev)
        mismatched = [
            s for s, measure in ((s_prev, earlier), (s_next, later))
            if set(measure.carrier) != set(sys.points_with_local_state(s))
        ]
        if mismatched:
            yield f"carrier mismatch at {seq_str(mismatched[0])}"
            continue
        nxt = sys.points_with_local_state(s_next)
        points = f"the {len(nxt)} points at local state {seq_str(s_next)}"
        check_budget("LOCAL-RULE", 4 ** len(nxt), f"subset pairs of {points}", budget)
        later_masks = _subset_masks(later, nxt)
        earlier_masks = _subset_masks(earlier, [(run, len(s_prev)) for run, _ in nxt])
        for a, b in disagreements(later, later_masks, earlier, earlier_masks, Ordering.at_most):
            yield f"local state {seq_str(s_next)}: subset masks ({a:#x}, {b:#x}) disagree"


def _subset_masks(measure: PlausibilityMeasure, points: Sequence[Point]) -> List[int]:
    """Entry k: the measure's carrier mask of the points whose positions in
    ``points`` are the bits of k, whatever order its carrier lists them in."""
    masks = [0]
    for point in points:
        bit = measure.mask([point])
        masks += [k | bit for k in masks]
    return masks


# ---------------------------------------------------------------------------
# Belief change system validation


def validate_bcs(sys: System, budget: int = 20_000) -> Report:
    """Check the five conditions that make a system a belief change system:
    environment-determined propositions, observation-sequence local states,
    learn-atom semantics, reliable observations, and a conditioning prior.
    """
    menu = sys.menu or tuple(dict.fromkeys(o for r in sys.runs for o in r.obs))
    vocab, runs, index = sys.vocab, sys.runs, sys.index
    # each check is decided once per (time, world) or (time, observation)
    # mask of the index; the witness is written for the first failing point
    obs_after = list(enumerate(index.obs_at))[1:]

    def bcs1(i: int, m: int) -> str:
        return f"environment state {vocab.world_str(runs[i].envs[m])} outside the universe"

    @functools.cache
    def bcs2(o: Formula) -> str:
        try:
            if not isinstance(o, Formula):
                raise FormulaError(f"observation {o!r} is not an environment formula")
            vocab.extension(o)
        except FormulaError as exc:
            return f"observation not in the environment language: {exc}"
        return ""

    # learn(o) depends on a point only through its last observation (none
    # at time 0), so BCS3 is decided at one point with each one
    bcs3_verdicts: Dict[Optional[Formula], str] = {}

    def bcs3(i: int, m: int) -> str:
        run = runs[i]
        last = run.obs[m - 1] if m else None
        verdict = bcs3_verdicts.get(last)
        if verdict is None:
            verdict = bcs3_verdicts[last] = learn_failure(run, m)
        return verdict

    def learn_failure(run: Run, m: int) -> str:
        if m == 0:
            wrong = [o for o in menu if model_check(sys, (run, 0), Learn(o))]
            return f"learn({wrong[0]}) true at time 0" if wrong else ""
        if not model_check(sys, (run, m), Learn(run.obs[m - 1])):
            return f"learn({run.obs[m-1]}) false right after observing it"
        wrong = [
            o for o in menu if o != run.obs[m - 1] and model_check(sys, (run, m), Learn(o))
        ]
        return f"learn({wrong[0]}) true without being observed" if wrong else ""

    def bcs4_failing() -> List[int]:
        failing = [0]
        for m, row in obs_after:
            false_then = 0
            for o, k in row.items():
                try:
                    ext = vocab.extension(o)
                except FormulaError:
                    continue  # outside the language: BCS2 reports it
                false_then |= k & ~index.env_event(m, ext)
            failing.append(false_then)
        return failing

    def bcs4(i: int, m: int) -> str:
        run = runs[i]
        return f"observation {run.obs[m-1]} false at time {m} in run {_run_str(sys, run)}"

    report = Report("bcs")
    outside = [union(k for w, k in row.items() if w not in sys.universe) for row in index.at]
    report.add_first("BCS1", first_failure(outside, bcs1))
    bcs2_failing = [0] + [union(k for o, k in row.items() if bcs2(o)) for _, row in obs_after]
    report.add_first("BCS2", first_failure(bcs2_failing, lambda i, m: bcs2(runs[i].obs[m - 1])))
    bcs3_failing = [index.full if index.full and bcs3(0, 0) else 0] + [
        union(k for k in row.values() if bcs3(_lowest(k), m)) for m, row in obs_after
    ]
    report.add_first("BCS3", first_failure(bcs3_failing, bcs3))
    report.add_first("BCS4", first_failure(bcs4_failing(), bcs4))
    report.add_first("BCS5", _check_conditioning(sys, budget))
    reason = _axioms_by_construction(root_of(sys.prior)[0])
    if reason:
        report.note(f"BCS5: the prior axioms hold by construction: {reason}")
    return report


def _axioms_by_construction(root: PlausibilityMeasure) -> str:
    """Why the root satisfies the prior axioms BCS5 asks about without a
    sweep, or "" when it does not say.  Ranked measures and dominance lifts
    of a strict partial order are qualitative and monotone (Friedman and
    Halpern, "Plausibility measures and default reasoning", J. ACM 2001);
    this relies on a PreferentialMeasure's rows being a strict partial
    order, as ``from_preference`` and ``LexPrior`` make them."""
    if isinstance(root, RankedMeasure):
        return "the prior's root is a ranked measure"
    if isinstance(root, PreferentialMeasure):
        return "the prior's root is the dominance lift of a strict partial order"
    return ""


def _check_conditioning(sys: System, budget: int) -> Iterator[str]:
    """The per-point measures must be exactly the prior conditioned on the
    local state, over its points in any order and every subset pair, and
    the prior's root must be qualitative and monotone: by construction for a ranked or preferential
    root, by an exhaustive sweep of any other.  An override whose 4^n
    subset pairs, or a swept root whose 4^n disjoint triples, exceed
    ``budget`` raises :class:`BudgetError`."""
    for s_a, override in (sys.point_measures or {}).items():
        conditioned = _conditioned_prior(sys, s_a)
        pts = conditioned.carrier
        if set(override.carrier) != set(pts):
            yield f"carrier mismatch at {seq_str(s_a)}"
            continue
        points = f"the {len(pts)} points at local state {seq_str(s_a)}"
        check_budget("BCS5", 4 ** len(pts), f"subset pairs of {points}", budget)
        masks = _subset_masks(override, pts)  # subset k of pts, on the override
        for a, b in disagreements(override, masks, conditioned, range(len(masks)), lambda order: order):
            yield f"measure at {seq_str(s_a)} is not the conditioned prior (masks {a:#x}, {b:#x})"
    base = root_of(sys.prior)[0]
    if _axioms_by_construction(base):
        return
    n = len(base.carrier)
    check_budget("BCS5", 4 ** n, f"disjoint triples of the prior's {n} elements", budget)
    if not is_qualitative(base):
        yield "prior is not qualitative"
    if not check_monotonicity(base):
        yield "prior violates monotonicity under union"


def _lowest(mask: int) -> int:
    """The number of the lowest run in a non-empty mask."""
    return (mask & -mask).bit_length() - 1


def _run_str(sys: System, run: Run) -> str:
    envs = ",".join(sys.vocab.world_str(w) for w in run.envs)
    obs = ",".join(str(o) for o in run.obs)
    return f"[{envs} | {obs}]"
