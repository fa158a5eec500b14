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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

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
    bits,
    check_monotonicity,
    group_positions,
    is_qualitative,
    mask_of,
    rank_levels,
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


@dataclass(frozen=True)
class Run:
    """One possible history: environment worlds 0..H and observations 1..H."""

    envs: Tuple[int, ...]
    obs: Tuple[Formula, ...]

    def __post_init__(self):
        if len(self.envs) != len(self.obs) + 1:
            raise RunSystemError("a run needs exactly one more environment state than observations")

    @property
    def horizon(self) -> int:
        return len(self.obs)

    def local_state(self, time: int) -> LocalState:
        return self.obs[:time]


Point = Tuple[Run, int]


@dataclass
class System:
    """A finite set of runs with a shared vocabulary and a prior over runs.

    ``universe`` is the set of worlds admitted as environment states (the
    full enumeration for ordinary propositional reasoning, a constrained
    subset when the consequence relation carries extra axioms, e.g. circuit
    behaviour).  ``menu`` lists the observation formulas runs draw from.
    """

    vocab: Vocabulary
    runs: Tuple[Run, ...]
    prior: PlausibilityMeasure
    horizon: int
    universe: FrozenSet[int] = None  # type: ignore[assignment]
    menu: Tuple[Formula, ...] = ()
    point_measures: Optional[Dict[LocalState, PlausibilityMeasure]] = None

    def __post_init__(self):
        if self.universe is None:
            self.universe = self.vocab.all_worlds()
        self.runs = tuple(self.runs)
        for run in self.runs:
            if run.horizon != self.horizon:
                raise RunSystemError("all runs must share the system horizon")
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


class RunIndex:
    """A system's run-set events as int masks: bit i stands for ``runs[i]``.

    Built once per system, on first use: one mask per (time, world) and
    one per (time, observation), each from one grouping of a time column,
    and one per observation prefix.  A prefix of length m + 1 is the AND of
    a prefix of length m with an observation column at time m + 1, kept
    when non-empty, so the prefixes cost at most the sum over m of
    |prefixes of length m| * |observations at time m + 1| ANDs.  Every
    other event is ``&`` and ``|`` of those.  Under a ranked prior, the
    prior's rank levels are derived from them when first read.
    """

    def __init__(self, sys: System):
        runs = sys.runs
        self.full = (1 << len(runs)) - 1
        # one time column at a time
        self.at: List[Dict[int, Mask]] = []
        for m in range(sys.horizon + 1):
            by_world = group_positions([run.envs[m] for run in runs])
            self.at.append({w: Mask(mask_of(ids)) for w, ids in by_world.items()})
        # obs_at[m][o]: the runs whose observation at time m is o (none at
        # time 0), observations in the order the runs first reach them
        self.obs_at: List[Dict[Formula, Mask]] = [{}]
        for m in range(sys.horizon):
            by_obs = group_positions([run.obs[m] for run in runs])
            self.obs_at.append({o: Mask(mask_of(ids)) for o, ids in by_obs.items()})
        # observation prefixes, one time at a time, then in the order the
        # runs first reach them: by first run, then by length
        level = [((), self.full)] if runs else []
        reached = list(level)
        for row in self.obs_at[1:]:
            level = [
                (s_a + (o,), both)
                for s_a, mask in level for o, column in row.items()
                if (both := mask & column)
            ]
            reached += level
        reached.sort(key=lambda group: (_lowest(group[1]), len(group[0])))
        self.prefix = {s_a: Mask(mask) for s_a, mask in reached}
        # the prior read on these masks
        self.prior = sys.prior
        if tuple(sys.prior.carrier) != runs:
            # a run outside the prior's carrier gets -1, which MappedMeasure rejects
            image = [sys.prior.index.get(run, -1) for run in runs]
            self.prior = MappedMeasure(runs, sys.prior, image)
        self._env_events: Dict[Tuple[int, FrozenSet[int]], Mask] = {}

    @cached_property
    def levels(self) -> List[Tuple[float, int]]:
        """(rank, run mask) per finite rank of a ranked prior, ascending: its
        root's level masks pulled back through the prior's image."""
        root, image = root_of(self.prior)
        if not isinstance(root, RankedMeasure):
            raise RunSystemError("rank levels need a ranked prior")
        if image is None:
            return root._levels
        ranks = root.ranks
        return rank_levels([ranks[j] for j in image])

    def observed(self, s_a: Sequence[Formula]) -> Mask:
        """Runs whose observation sequence starts with ``s_a``."""
        return self.prefix.get(tuple(s_a), Mask(0))

    def env_event(self, time: int, ext: Extension) -> Mask:
        """Runs whose environment world at ``time`` lies in ``ext``."""
        key = (time, ext)
        event = self._env_events.get(key)
        if event is None:
            row, event = self.at[time], 0
            for w in ext:
                event |= row.get(w, 0)
            event = self._env_events[key] = Mask(event)
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
    when the event sits at bottom.

    Under a ranked prior these are the worlds of the event's least-ranked
    runs: the first of the run index's rank levels that meets the event.
    """
    index = sys.index
    if not isinstance(root_of(index.prior)[0], RankedMeasure):
        return _not_disbelieved(index.prior, event, index.at[time])
    for _, level in index.levels:
        hits = level & event
        if hits:
            return frozenset(w for w, runs in index.at[time].items() if runs & hits)
    return frozenset()


def _not_disbelieved(measure: PlausibilityMeasure, event: int, rows: Dict[int, int]) -> Extension:
    """The worlds w, of ``rows`` (world -> carrier mask), whose part of
    ``event`` the rest of the event does not beat under ``measure``."""
    if measure.is_bottom(Mask(event)):
        return frozenset()
    out = []
    for w, row in rows.items():
        holders = event & row
        if holders and not measure.more_plausible(Mask(event & ~holders), Mask(holders)):
            out.append(w)
    return frozenset(out)


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


def check_prior_local_rule(sys: System, max_points: int = 8) -> Report:
    """Verify the step-to-step conditioning rule: for every step from a
    time-m local state to a time-m+1 one and all subset pairs (A, B) of the
    later state's points, A is at most as plausible as B exactly when the
    time-m predecessor sets compare the same way under the time-m measure.

    A measure obtained by conditioning the prior (BCS5) satisfies the rule
    by construction, since both sides reduce to the same prior comparison.
    So only the steps into or out of a local state with an entry in
    ``point_measures`` are swept; a swept state with more than
    ``max_points`` points raises :class:`BudgetError`.

    The sweep stops at the first local state that breaks the rule, so a
    local state past it that exceeds the size bound raises no
    :class:`BudgetError`.
    """
    report = Report("prior-local-rule")
    report.add_first("LOCAL-RULE", _local_rule_failures(sys, max_points))
    report.note("steps without a point-measure override hold by construction: not swept")
    return report


def _local_rule_failures(sys: System, max_points: int) -> Iterator[str]:
    overrides = sys.point_measures or {}
    for s_next in sys.index.prefix:
        if not s_next:
            continue
        s_prev = s_next[:-1]
        if s_prev not in overrides and s_next not in overrides:
            continue
        nxt = sys.points_with_local_state(s_next)
        if len(nxt) > max_points:
            raise BudgetError(
                f"{len(nxt)} points share local state {seq_str(s_next)}; "
                f"limit is {max_points}"
            )
        later, earlier = sys.plaus_at(s_next), sys.plaus_at(s_prev)
        m = len(s_prev)
        # subset k of the later points, as each measure's carrier mask
        later_masks, earlier_masks = [0], [0]
        for (run, _) in nxt:
            bit, earlier_bit = later.mask([(run, m + 1)]), earlier.mask([(run, m)])
            later_masks += [k | bit for k in later_masks]
            earlier_masks += [k | earlier_bit for k in earlier_masks]
        masks = _first_disagreement(
            later,
            later_masks,
            earlier,
            earlier_masks,
            lambda order: order in (Ordering.LESS, Ordering.EQUAL),
        )
        if masks is not None:
            a, b = masks
            yield f"local state {seq_str(s_next)}: subset masks ({a:#x}, {b:#x}) disagree"


def _first_disagreement(
    left: PlausibilityMeasure,
    left_masks: Sequence[int],
    right: PlausibilityMeasure,
    right_masks: Sequence[int],
    relation,
) -> Optional[Tuple[int, int]]:
    """The first pair of subset numbers (a, b), in row-major order, on which
    ``relation`` of the two measures' verdicts differs: ``left`` compares
    ``left_masks[a]`` with ``left_masks[b]``, ``right`` the same entries of
    ``right_masks`` (of the same length).  None if there is no such pair."""

    def verdicts(measure, masks):
        compare, masks = measure.compare, [Mask(k) for k in masks]
        return (relation(compare(a, b)) for a in masks for b in masks)

    pairs = zip(verdicts(left, left_masks), verdicts(right, right_masks))
    for index, (left_verdict, right_verdict) in enumerate(pairs):
        if left_verdict != right_verdict:
            return divmod(index, len(left_masks))
    return None


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
    this relies on a PreferentialMeasure's ``prec`` being a strict partial
    order, as ``from_preference`` and ``LexRunOrder.prec`` make it."""
    if isinstance(root, RankedMeasure):
        return "the prior's root is a ranked measure"
    if isinstance(root, PreferentialMeasure):
        return "the prior's root is the dominance lift of a strict partial order"
    return ""


def _check_conditioning(sys: System, budget: int) -> Iterator[str]:
    """The per-point measures must be exactly the prior conditioned on the
    local state, over every subset pair, and the prior's root must be
    qualitative and monotone: by construction for a ranked or preferential
    root, by an exhaustive sweep of any other.  An override whose 4^n
    subset pairs, or a swept root whose 4^n disjoint triples, exceed
    ``budget`` raises :class:`BudgetError`."""
    for s_a, override in (sys.point_measures or {}).items():
        conditioned = _conditioned_prior(sys, s_a)
        pts = conditioned.carrier
        if tuple(override.carrier) != pts:
            yield f"carrier mismatch at {seq_str(s_a)}"
            continue
        points = f"the {len(pts)} points at local state {seq_str(s_a)}"
        check_budget("BCS5", 4 ** len(pts), f"subset pairs of {points}", budget)
        subsets = range(1 << len(pts))
        masks = _first_disagreement(override, subsets, conditioned, subsets, lambda order: order)
        if masks is not None:
            a, b = masks
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
