"""The lazy run view (``systems.Runs``), the lexicographic prior's cells
numbered off its blocks, the stretch-wise rank levels and the
one-rank-per-world belief reading, each checked against the eager or
pairwise reference it replaces."""
import itertools
import os
import random

import pytest

from beliefchange import cli, systems
from beliefchange.diagnosis import Circuit, Gate, build_diag_system
from beliefchange.formulas import Atom, Not, Or, Vocabulary
from beliefchange.plausibility import (
    INF,
    Mask,
    Ordering,
    RankedMeasure,
    frozen_sequence,
    group_positions,
    mask_of,
)
from beliefchange.revision import system_from_ranking
from beliefchange.scenario import build_system, load_scenario, load_scenario_text
from beliefchange.systems import Run, Runs, _not_disbelieved
from beliefchange.update import LexPrior, hamming_structure, random_structure, system_from_update

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "src", "beliefchange", "scenarios")
BUNDLED = sorted(name for name in os.listdir(SCENARIOS) if name.endswith(".scn"))
PQ = Vocabulary(["p", "q"])
PQR = Vocabulary(["p", "q", "r"])


def literals(vocab):
    return [f(Atom(a)) for a in vocab.props for f in (lambda x: x, Not)]


def seeded_static(seed):
    rng = random.Random(seed)
    ranks = {x: rng.choice([0, 1, 2, INF]) for x in PQR.worlds()}
    return system_from_ranking(PQR, ranks, rng.sample(literals(PQR), 3), rng.randrange(4))


def seeded_preference(seed):
    rng = random.Random(seed)
    worlds = [PQ.world_str(x) for x in PQ.worlds()]
    rng.shuffle(worlds)
    pairs = [(a, b) for a, b in itertools.combinations(worlds, 2) if rng.random() < 0.5]
    menu = ", ".join(str(f) for f in rng.sample(literals(PQ), 2))
    text = f"vocab p q\nhorizon {1 + seed % 3}\nprior preference\n"
    text += "".join(f"  {a} < {b}\n" for a, b in pairs) + f"menu true, {menu}\n"
    return build_system(load_scenario_text(text))


def seeded_update(seed):
    rng = random.Random(seed)
    structure = hamming_structure(PQ) if seed % 2 else random_structure(PQ, rng)
    menu = rng.sample(literals(PQ), 2) + [Or(*rng.sample(literals(PQ), 2))]
    return system_from_update(structure, 1 + seed % 3, menu)


def seeded_diagnosis(seed):
    rng = random.Random(seed)
    gates = [
        Gate("a1", rng.choice(["AND", "OR", "XOR"]), ("l1", "l2"), "l4"),
        Gate("a2", rng.choice(["AND", "OR", "XOR"]), ("l4", "l3"), "l5"),
    ]
    circuit = Circuit(gates)
    tests = [{l: rng.random() < 0.5 for l in circuit.input_lines} for _ in range(1 + seed % 2)]
    return build_diag_system(circuit, tests)


# each entry builds a fresh system, so its view has not been iterated yet
SYSTEMS = {
    **{name: (lambda name=name: build_system(load_scenario(os.path.join(SCENARIOS, name))))
       for name in BUNDLED},
    **{f"static-{s}": (lambda s=s: seeded_static(s)) for s in range(3)},
    **{f"preference-{s}": (lambda s=s: seeded_preference(s)) for s in range(3)},
    **{f"update-{s}": (lambda s=s: seeded_update(s)) for s in range(3)},
    **{f"diagnosis-{s}": (lambda s=s: seeded_diagnosis(s)) for s in range(3)},
}


def eager_runs(blocks):
    """Every run of the blocks, concatenated from one segment per factor in
    ``itertools.product`` order: what the blocks listed before the view."""
    return [
        Run(sum((envs for envs, _ in parts), ()), sum((obs for _, obs in parts), ()))
        for block in blocks for parts in itertools.product(*block)
    ]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_each_run_decoded_before_iteration_is_the_eager_one(name):
    sys_ = SYSTEMS[name]()
    assert sys_.runs._built is None
    runs = Runs(sys_.blocks)
    assert type(runs) is Runs and runs._built is None
    reference = eager_runs(sys_.blocks)
    n = len(runs)
    assert n == len(reference)
    for i in range(n):
        assert runs[i] == reference[i] and type(runs[i]) is Run
    for i in range(1, min(n, 40) + 1):
        assert runs[-i] == reference[-i]
    for i in (n, n + 7, -n - 1):
        with pytest.raises(IndexError):
            runs[i]
    assert runs.initial_worlds() == [run.envs[0] for run in reference]
    assert runs._built is None
    # iterating builds the tuple once; the view then compares as it does
    assert list(runs) == reference
    built = runs._built
    assert built == tuple(reference) and runs._built is built
    assert runs == tuple(reference) and runs == sys_.runs
    assert runs != list(reference)
    assert hash(runs) == hash(tuple(reference))
    assert runs + (reference[0],) == tuple(reference) + (reference[0],)
    assert runs[1:4] == tuple(reference[1:4]) and runs[-1] == reference[-1]
    assert reference[-1] in runs


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_measures_keep_the_view_and_the_index_reads_it_as_is(name):
    sys_ = SYSTEMS[name]()
    assert sys_.prior.carrier is sys_.runs
    assert sys_.index.prior is sys_.prior
    # reading the prior as it is builds no run
    assert sys_.runs._built is None


def test_measures_copy_only_unhashable_carriers():
    sys_ = seeded_static(0)
    runs = sys_.runs
    listed = list(runs)
    kept = tuple(listed)
    for carrier, expected in ((runs, runs), (kept, kept)):
        assert RankedMeasure(carrier, [0] * len(listed)).carrier is expected
    copied = RankedMeasure(listed, [0] * len(listed)).carrier
    assert type(copied) is tuple and copied == kept
    assert type(frozen_sequence(iter(listed))) is tuple
    assert frozen_sequence(runs) is runs and frozen_sequence(kept) is kept


def reference_env_sequences(runs):
    """The distinct environment sequences in the order the runs first reach
    them, and each run's number among them, read run by run."""
    numbers = {}
    image = [numbers.setdefault(run.envs, len(numbers)) for run in runs]
    return list(numbers), image


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_env_sequences_read_off_the_blocks_match_the_runs(name):
    sys_ = SYSTEMS[name]()
    got = sys_.runs.env_sequences()
    assert sys_.runs._built is None
    assert got == reference_env_sequences(eager_runs(sys_.blocks))


@pytest.mark.parametrize("name", [name for name in sorted(SYSTEMS) if "update" in name])
def test_lex_prior_numbers_its_cells_as_the_run_list_does(name):
    sys_ = SYSTEMS[name]()
    listed = LexPrior(eager_runs(sys_.blocks), sys_.prior.structure)
    assert sys_.runs._built is None
    assert sys_.prior.image == listed.image
    assert sys_.prior.base.carrier == listed.base.carrier
    assert sys_.prior.base.rows == listed.base.rows


def test_hand_made_blocks_number_their_env_sequences_as_the_runs_do():
    # segments spanning two times, repeated world parts, a sequence shared
    # by two blocks and an empty block
    segment = lambda envs, obs: (envs, obs)
    blocks = (
        ((segment((0, 1), ()), segment((2, 3), ()), segment((0, 1), ())), (segment((1,), (1,)), segment((1,), (2,)))),
        ((segment((2, 3), ()),), ()),
        ((segment((2, 3), ()), segment((0, 0), ())), (segment((0,), (3,)), segment((1,), (3,)))),
    )
    runs = Runs(blocks)
    assert runs.env_sequences() == reference_env_sequences(eager_runs(blocks))
    assert runs.env_sequences()[0] == [(0, 1, 1), (2, 3, 1), (2, 3, 0), (0, 0, 0), (0, 0, 1)]


def test_update_commands_build_no_run(monkeypatch):
    # update, check-upd and check-bcs read the update system through its
    # blocks, its run index and its prior's root
    built, listed = [], systems.Runs._all

    def counted(runs):
        if runs._built is None:
            built.append(len(runs))
        return listed(runs)

    monkeypatch.setattr(systems.Runs, "_all", counted)
    path = os.path.join(SCENARIOS, "small_update.scn")
    for command in ("update", "check-upd", "check-bcs"):
        for form in ("text", "machine"):
            assert cli.main([command, "--scenario", path, "--format", form]) == 0
    assert built == []
    assert cli.main(["statify", "--scenario", path]) == 1 and built == [256]


def test_slices_build_and_empty_blocks_are_skipped():
    segment = lambda w, o=(): ((w,), o)
    blocks = (
        ((segment(0), segment(1)),),
        ((segment(2),), ()),  # an empty factor: no runs
        ((segment(3), segment(4), segment(5)),),
    )
    runs = Runs(blocks)
    assert len(runs) == 5
    assert [runs[i].envs for i in range(5)] == [(0,), (1,), (3,), (4,), (5,)]
    assert runs._built is None
    assert runs[1:3] == (Run((1,), ()), Run((3,), ()))
    assert runs._built is not None
    assert len(Runs(())) == 0 and list(Runs(())) == []


def reference_levels(ranks):
    by_rank = group_positions(ranks)
    return [(r, mask_of(by_rank[r])) for r in sorted(by_rank) if r != INF]


@pytest.mark.parametrize("seed", range(12))
def test_rank_levels_match_the_grouping_of_positions(seed):
    rng = random.Random(seed)
    values = [0, 1, 2, 3, 7, INF]
    n = rng.choice([1, 2, 7, 40, 300])
    scattered = [rng.choice(values) for _ in range(n)]
    stretches = [r for r in scattered[: n // 8 + 1] for _ in range(rng.randrange(1, 9))]
    shuffled = sorted(scattered)
    rng.shuffle(shuffled)
    for ranks in (
        scattered,
        shuffled,
        stretches,
        sorted(scattered) + scattered,  # stretches, then short ones
        scattered + sorted(scattered),
        [INF] * n,
        [],
    ):
        measure = RankedMeasure(range(len(ranks)), ranks)
        assert measure._levels == reference_levels(ranks), ranks


def reference_not_disbelieved(measure, event, rows):
    """The worlds whose part of the event the rest does not beat, one
    ``compare`` per world."""
    if measure.compare(Mask(event), Mask(0)) is Ordering.EQUAL:
        return frozenset()
    return frozenset(
        w for w, row in rows.items()
        if event & row
        and measure.compare(Mask(event & ~row), Mask(event & row)) is not Ordering.GREATER
    )


def check_every_prefix_event(sys_):
    index = sys_.index
    for s_a, event in index.prefix.items():
        for m in range(sys_.horizon + 1):
            rows = index.at[m]
            expected = reference_not_disbelieved(index.prior, event, rows)
            assert _not_disbelieved(index.prior, event, rows) == expected, (s_a, m)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_belief_reading_matches_compare_per_world(name):
    check_every_prefix_event(SYSTEMS[name]())


@pytest.mark.parametrize("seed", range(20))
def test_belief_reading_matches_compare_on_random_rankings(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 40)
    measure = RankedMeasure(range(n), [rng.choice([0, 1, 2, 5, INF]) for _ in range(n)])
    worlds = rng.randrange(1, 6)
    rows = {}
    for i in range(n):
        w = rng.randrange(worlds)
        rows[w] = rows.get(w, 0) | 1 << i
    for _ in range(30):
        event = rng.getrandbits(n)
        assert _not_disbelieved(measure, event, rows) == reference_not_disbelieved(
            measure, event, rows
        )
