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
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .formulas import (
    FALSE,
    TRUE,
    BeliefChangeError,
    Formula,
    TimestampError,
    Vocabulary,
    timestamp,
    timestamped_vocabulary,
)
from .plausibility import (
    MappedMeasure,
    Mask,
    PreferentialMeasure,
    RankedMeasure,
    bits,
    mask_of,
    root_of,
)
from .reports import Report
from .revision import validate_rev
from .systems import Believes, Run, System, check_budget, model_check, validate_bcs
from .update import LexPrior, _check_upd3, _check_upd4


class SynthesisError(BeliefChangeError):
    pass


@dataclass
class StatifiedSystem:
    """The transformed system plus the run bijection it came from."""

    inner: System
    source: System
    to_source: Dict[Run, Run]
    from_source: Dict[Run, Run]
    horizon: int

    @property
    def vocab(self) -> Vocabulary:
        return self.inner.vocab


def _encode_env_sequence(sys: System, vocab_star: Vocabulary, envs: Sequence[int]) -> int:
    assignment = {}
    for m, world in enumerate(envs):
        for name in sys.vocab.props:
            assignment[f"{name}@{m}"] = sys.vocab.truth(world, name)
    return vocab_star.world_of(assignment)


def statify(sys: System, horizon: Optional[int] = None) -> StatifiedSystem:
    """Transform a system into its timestamped twin.

    Each run maps to one whose constant environment state encodes the full
    original state sequence and whose observations carry their own time
    index.  The prior is the image of the original prior under this
    bijection, so all run-set comparisons are preserved exactly.
    """
    if any("@" in name for name in sys.vocab.props):
        raise TimestampError("system vocabulary is already timestamped")
    if horizon is None:
        horizon = sys.horizon
    if horizon < sys.horizon:
        raise SynthesisError("timestamp horizon must cover the system horizon")
    vocab_star = timestamped_vocabulary(sys.vocab, horizon)

    to_source: Dict[Run, Run] = {}
    from_source: Dict[Run, Run] = {}
    runs_star: List[Run] = []
    for run in sys.runs:
        encoded = _encode_env_sequence(sys, vocab_star, run.envs)
        obs_star = tuple(timestamp(o, k + 1) for k, o in enumerate(run.obs))
        run_star = Run((encoded,) * (sys.horizon + 1), obs_star)
        if run_star in to_source:
            raise SynthesisError("run collision while timestamping")
        to_source[run_star] = run
        from_source[run] = run_star
        runs_star.append(run_star)

    # twin run i is source run i
    prior_star = MappedMeasure(runs_star, sys.index.prior, range(len(runs_star)))
    universe_star = frozenset(
        _encode_env_sequence(sys, vocab_star, envs)
        for envs in itertools.product(sorted(sys.universe), repeat=sys.horizon + 1)
    )
    menu_star = tuple(
        dict.fromkeys(
            timestamp(o, k)
            for k in range(1, sys.horizon + 1)
            for o in sys.menu
        )
    )
    inner = System(
        vocab=vocab_star,
        runs=tuple(runs_star),
        prior=prior_star,
        horizon=sys.horizon,
        universe=universe_star,
        menu=menu_star,
    )
    return StatifiedSystem(inner, sys, to_source, from_source, horizon)


def belief_correspondence(
    st: StatifiedSystem, run: Run, time: int, formula: Formula
) -> bool:
    """Do the original point and its timestamped twin agree on believing
    the formula (timestamped to the current instant on the twin side)?"""
    source_side = model_check(st.source, (run, time), Believes(formula))
    star_side = model_check(
        st.inner, (st.from_source[run], time), Believes(timestamp(formula, time))
    )
    return source_side == star_side


def _timed_obs_sequences(st: StatifiedSystem, max_len: int) -> List[Tuple[Formula, ...]]:
    """On-time observation sequences plus a layer of off-time probes.

    Off-time probes (a formula stamped for a different instant than it is
    observed at) can never be observed in the twin, which is exactly what
    separates the strong neutrality condition from its observable-only
    weakening.
    """
    menu = list(st.source.menu)
    horizon = st.source.horizon
    sequences: List[Tuple[Formula, ...]] = []
    for k in range(1, min(max_len, horizon) + 1):
        if len(menu) ** k > 2048:
            break
        for combo in itertools.product(menu, repeat=k):
            sequences.append(tuple(timestamp(o, i + 1) for i, o in enumerate(combo)))
    for o in menu:
        for wrong_time in range(2, horizon + 1):
            sequences.append((timestamp(o, wrong_time),))
    return sequences


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
    probes = _star_probes(st)
    rev = validate_rev(
        inner,
        formula_probes=probes,
        obs_sequences=_timed_obs_sequences(st, 2),
        budget=budget,
    )

    report.add("REV1", rev["REV1"].passed, rev["REV1"].witness)
    if upd is not None:
        rev4p = rev["REV4'"]
        report.add(
            "UPD3->REV3",
            (not upd["UPD3"].passed) or rev["REV3"].passed,
            f"update side: {upd['UPD3'].witness}; static side: {rev['REV3'].witness}",
        )
        report.add(
            "UPD4->REV4'",
            (not upd["UPD4"].passed) or rev4p.passed,
            f"update side: {upd['UPD4'].witness}; static side: {rev4p.witness}",
        )
    # observed verdicts: genuinely partial priors fail the rankedness
    # requirement, and off-time observations break strong neutrality
    report.add("REV2", rev["REV2"].passed, rev["REV2"].witness)
    report.add("REV4", rev["REV4"].passed, rev["REV4"].witness)
    report.add_first("PRIOR-ISO", _check_prior_isomorphism(st, budget))
    return report


def _star_probes(st: StatifiedSystem) -> List[Formula]:
    probes: List[Formula] = [TRUE, FALSE]
    for o in st.source.menu:
        for k in range(1, st.source.horizon + 1):
            probes.append(timestamp(o, k))
    return list(dict.fromkeys(probes))


def _check_prior_isomorphism(st: StatifiedSystem, budget: int) -> Iterator[str]:
    """Run-set comparisons must be identical on both sides of the bijection.

    When both priors read one root and every twin run has the root position
    of its source run, each pair compares alike by construction and
    nothing is swept.  Otherwise, when both roots are ranked measures or
    dominance lifts, each side is fixed by how single runs compare with
    each other and with the empty set, so the empty set and one run per
    (twin image, source image) class are compared pairwise.  With any other
    root every subset pair is compared.  More pairs than the budget raise
    :class:`BudgetError`.
    """
    position = {run: i for i, run in enumerate(st.source.runs)}
    to_source = [position[st.to_source[run]] for run in st.inner.runs]
    star, source = st.inner.index.prior, st.source.index.prior
    (star_root, star_image), (source_root, source_image) = root_of(star), root_of(source)
    if star_image is None:  # the same positions
        star_image = range(len(star_root.carrier))
    if source_image is None:
        source_image = range(len(source_root.carrier))
    if star_root is source_root and all(
        star_image[i] == source_image[j] for i, j in enumerate(to_source)
    ):
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

    def image(mask: int) -> Mask:
        return Mask(mask_of([to_source[i] for i in bits(mask)]))

    for a, b in itertools.product(masks, repeat=2):
        if star.compare(Mask(a), Mask(b)) is not source.compare(image(a), image(b)):
            sizes = (a.bit_count(), b.bit_count())
            yield f"subset pair of sizes {sizes} compares differently"
