"""Statification: rewriting a dynamic system over timestamped propositions.

Replacing each proposition p by copies "p at time m" turns every changing
description into a static one: the transformed runs keep a single
environment state that encodes the whole original state sequence, and the
prior is carried across the run bijection unchanged.  An update-style
system then behaves like a revision system with a partially ordered
prior: the static-propositions condition holds by construction, positive
plausibility and observation neutrality transfer from their update
counterparts, and only rankedness (and full observability of off-time
formulas) is lost.
"""
from __future__ import annotations

import itertools
from collections import abc
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Sequence, Tuple

from .formulas import (
    FALSE,
    TRUE,
    Formula,
    TimestampError,
    timestamp,
    timestamped_vocabulary,
)
from .plausibility import (
    MappedMeasure,
    Mask,
    PreferentialMeasure,
    RankedMeasure,
    bits,
    disagreements,
    group_positions,
    mask_of,
    root_of,
)
from .reports import Report
from .revision import validate_rev
from .systems import Believes, Run, RunIndex, Runs, System, check_budget, model_check, validate_bcs
from .update import LexPrior, _check_upd3, _check_upd4


@dataclass
class StatifiedSystem:
    """The transformed system plus the run bijection it came from: twin
    run i is source run ``to_source[i]``."""

    inner: System
    source: System
    to_source: Sequence[int]


def _encode_env_sequence(width: int, envs: Sequence[int]) -> int:
    """The twin world of an environment sequence, ``width`` bits a world,
    time-major as :func:`timestamped_vocabulary` orders the p@m."""
    code = 0
    for world in envs:
        code = code << width | world
    return code


class TwinRuns(abc.Sequence):
    """A statified twin's runs: run i is the source's run i with its
    environment sequence encoded (:func:`_encode_env_sequence`) and held at
    every time, and each observation stamped with its time, decoded only
    when asked for.  It compares and hashes as the tuple of its runs."""

    __slots__ = ("source",)

    def __init__(self, source: System):
        self.source = source

    def twin(self, run: Run) -> Run:
        code = _encode_env_sequence(len(self.source.vocab.props), run.envs)
        return Run((code,) * len(run.envs), tuple(map(timestamp, run.obs, range(1, len(run.envs)))))

    def __len__(self) -> int:
        return len(self.source.runs)

    def __getitem__(self, i):
        runs = self.source.runs[i]
        return tuple(map(self.twin, runs)) if isinstance(i, slice) else self.twin(runs)

    def __iter__(self) -> Iterator[Run]:
        return map(self.twin, self.source.runs)

    def __eq__(self, other) -> bool:
        return other is self or tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))


class TwinSystem(System):
    """A statified twin over :class:`TwinRuns`, whose run index is read off
    its source's."""

    def _check_runs(self) -> None:
        """Nothing to decode: a twin run has its source run's shape."""

    @cached_property
    def index(self) -> RunIndex:
        return RunIndex(self, _twin_columns(self.runs.source))


def _twin_columns(source: System) -> Tuple[List[Dict[int, Mask]], List[Dict[Formula, Mask]]]:
    """The twin's :attr:`RunIndex.at` and :attr:`RunIndex.obs_at`: one
    world row for every time, each encoded environment sequence with the
    runs that have it, in the order the runs first reach them
    (:meth:`Runs.env_sequences`); and the source's observation rows, each
    observation stamped with its row's time."""
    sequences, numbers = Runs(source.blocks).env_sequences()
    width = len(source.vocab.props)
    groups = group_positions(numbers).items()
    row = {_encode_env_sequence(width, sequences[k]): Mask(mask_of(ids)) for k, ids in groups}
    obs_at = [
        {timestamp(o, m): runs for o, runs in observed.items()} for m, observed in enumerate(source.index.obs_at)
    ]
    return [row] * (source.horizon + 1), obs_at


def statify(sys: System) -> StatifiedSystem:
    """Transform a system into its timestamped twin.

    Each run maps to one whose constant environment state encodes the full
    original state sequence and whose observations carry their own time
    index.  The prior is the image of the original prior under this
    bijection (twin run i is source run i, :class:`TwinRuns`), so all
    run-set comparisons are preserved exactly.
    """
    if any("@" in name for name in sys.vocab.props):
        raise TimestampError("system vocabulary is already timestamped")
    vocab_star = timestamped_vocabulary(sys.vocab, sys.horizon)
    runs_star, width = TwinRuns(sys), len(sys.vocab.props)
    positions = range(len(runs_star))
    universe_star = frozenset(
        _encode_env_sequence(width, envs) for envs in itertools.product(sys.universe, repeat=sys.horizon + 1)
    )
    menu_star = tuple(dict.fromkeys(timestamp(o, k) for k in range(1, sys.horizon + 1) for o in sys.menu))
    prior_star = MappedMeasure(runs_star, sys.index.prior, positions)
    inner = TwinSystem(vocab_star, runs_star, prior_star, sys.horizon, universe=universe_star, menu=menu_star)
    return StatifiedSystem(inner, sys, positions)


def belief_correspondence(st: StatifiedSystem, run: Run, time: int, formula: Formula) -> bool:
    """Do the original point and its timestamped twin agree on believing
    the formula (timestamped to the current instant on the twin side)?"""
    source_side = model_check(st.source, (run, time), Believes(formula))
    twin = TwinRuns(st.source).twin(run)
    star_side = model_check(st.inner, (twin, time), Believes(timestamp(formula, time)))
    return source_side == star_side


def _timed_obs_sequences(st: StatifiedSystem, max_len: int) -> List[Tuple[Formula, ...]]:
    """On-time observation sequences plus a layer of off-time probes.

    Off-time probes (a formula stamped for a different instant than it is
    observed at) can never be observed in the twin, which is exactly what
    separates the strong neutrality condition from its observable-only
    weakening.
    """
    menu, horizon = list(st.source.menu), st.source.horizon
    on_time = [
        tuple(timestamp(o, i + 1) for i, o in enumerate(combo))
        for k in range(1, min(max_len, horizon) + 1)
        for combo in itertools.product(menu, repeat=k)
    ]
    return on_time + [(timestamp(o, t),) for o in menu for t in range(2, horizon + 1)]


def verify_statification(st: StatifiedSystem, budget: int = 60_000) -> Report:
    """Confirm the transformed system's place between update and revision.

    The twin must be a belief change system satisfying the static-
    propositions condition outright; positive plausibility and observation
    neutrality carry over as implications from their update-side
    counterparts; rankedness and the strong neutrality condition are
    reported as observed (they fail for genuinely partial priors and
    off-time observations respectively).  ``budget`` bounds BCS5, UPD4's
    parts, REV2, REV4/REV4' and PRIOR-ISO; a part of BCS5, UPD4, REV4 or
    PRIOR-ISO past it raises :class:`BudgetError`.
    """
    inner = st.inner
    report = Report("statify")

    bcs = validate_bcs(inner, budget)
    report.add("BCS", bcs.all_passed, "; ".join(r.text_line() for r in bcs.failures()))

    upd = None
    if isinstance(st.source.prior, LexPrior):
        # validate_upd's UPD3 and UPD4, the latter at this report's budget
        source, structure, upd = st.source, st.source.prior.structure, Report("upd")
        upd.add_first("UPD3", _check_upd3(source, structure))
        upd.add_first("UPD4", _check_upd4(source, structure, budget))
    probes, sequences = _star_probes(st), _timed_obs_sequences(st, 2)
    rev = validate_rev(inner, formula_probes=probes, obs_sequences=sequences, budget=budget)

    report.add("REV1", rev["REV1"].passed, rev["REV1"].witness)
    if upd is not None:
        for update_side, static_side in (("UPD3", "REV3"), ("UPD4", "REV4'")):
            u, r = upd[update_side], rev[static_side]
            witness = f"update side: {u.witness}; static side: {r.witness}"
            report.add(f"{update_side}->{static_side}", (not u.passed) or r.passed, witness)
    # observed verdicts: genuinely partial priors fail the rankedness
    # requirement, and off-time observations break strong neutrality
    report.add("REV2", rev["REV2"].passed, rev["REV2"].witness)
    report.add("REV4", rev["REV4"].passed, rev["REV4"].witness)
    report.add_first("PRIOR-ISO", _check_prior_isomorphism(st, budget))
    return report


def _star_probes(st: StatifiedSystem) -> List[Formula]:
    stamped = [timestamp(o, k) for o in st.source.menu for k in range(1, st.source.horizon + 1)]
    return list(dict.fromkeys([TRUE, FALSE] + stamped))


def _check_prior_isomorphism(st: StatifiedSystem, budget: int) -> Iterator[str]:
    """Run-set comparisons must be identical on both sides of the bijection.

    When both priors read one root and every twin run has the root position
    of its source run, each pair compares alike by construction and
    nothing is swept.  Otherwise, when both roots are ranked measures or
    dominance lifts, each side is fixed by how single runs compare with
    each other and with the empty set, so the empty set and one run per
    (twin image, source image) class are compared pairwise.  With any other
    root every subset pair is compared.  More pairs than the budget raise
    :class:`BudgetError`.  Twin run i maps to source run ``to_source[i]``.
    """
    to_source, star, source = st.to_source, st.inner.index.prior, st.source.index.prior
    (star_root, star_image), (source_root, source_image) = root_of(star), root_of(source)
    # None: the same positions
    star_image = range(len(star_root.carrier)) if star_image is None else star_image
    source_image = range(len(source_root.carrier)) if source_image is None else source_image
    if star_root is source_root and list(star_image) == list(map(source_image.__getitem__, to_source)):
        return
    n = len(st.inner.runs)
    fixed_by_single_runs = (RankedMeasure, PreferentialMeasure)
    if isinstance(star_root, fixed_by_single_runs) and isinstance(source_root, fixed_by_single_runs):
        first: Dict[Tuple[int, int], int] = {}  # (twin image, source image) -> its first run
        for i, j in enumerate(to_source):
            first.setdefault((star_image[i], source_image[j]), i)
        masks = [0] + [1 << i for i in first.values()]
        singles = f"pairs of the empty set and {len(masks) - 1} single runs"
        check_budget("PRIOR-ISO", len(masks) ** 2, singles, budget)
    else:
        check_budget("PRIOR-ISO", 4 ** n, f"subset pairs of {n} runs", budget)
        masks = range(1 << n)

    images = [mask_of([to_source[i] for i in bits(mask)]) for mask in masks]
    for a, b in disagreements(star, masks, source, images, lambda order: order):
        sizes = (masks[a].bit_count(), masks[b].bit_count())
        yield f"subset pair of sizes {sizes} compares differently"
