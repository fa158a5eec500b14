"""The run-index paths of the ranked and diagnosis checkers, checked
against test-local copies of the per-run code they replace.

Each reference below walks ``sys.runs`` point by point: the run index
built run by run, the BCS1-BCS4, UPD1, REV1 and PERSISTENCE closures,
the diagnosis cases collected per run, and ``bel`` read off the
conditioned prior.  The tests compare whole report lines
(``to_machine()``), so a verdict or a witness that moves fails.
"""
import functools
import itertools
import os
import random

import pytest

from beliefchange import cli
from beliefchange.diagnosis import (
    Circuit,
    DiagnosisError,
    Gate,
    build_diag_system,
    check_prop_diag,
    consistent_faults,
    consistent_states,
    diag,
    matching_states,
)
from beliefchange.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Formula,
    FormulaError,
    Not,
    Or,
    Vocabulary,
    parse_formula,
    seq_str,
)
from beliefchange.plausibility import (
    INF,
    MappedMeasure,
    Mask,
    Ordering,
    PlausibilityError,
    RankedMeasure,
    bits,
    mask_of,
    rank_of,
)
from beliefchange.reports import Report
from beliefchange.revision import system_from_ranking, validate_rev
from beliefchange.scenario import build_system, load_scenario
from beliefchange.synthesis import statify
from beliefchange.systems import (
    Learn,
    Run,
    RunSystemError,
    System,
    _check_conditioning,
    _run_str,
    bel,
    believed,
    expand,
    first_failure,
    menu_system,
    model_check,
    validate_bcs,
)
from beliefchange import update
from beliefchange.update import hamming_structure, validate_upd

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "src", "beliefchange", "scenarios")
PQ = Vocabulary(["p", "q"])
P_ = Atom("p")
Q_ = Atom("q")
RANKS = {0b11: 0, 0b10: 1, 0b01: 1, 0b00: 2}


def w(bits):
    return PQ.world_from_str(bits)


def scenario_system(name):
    return build_system(load_scenario(os.path.join(SCENARIOS, name)))


# ---------------------------------------------------------------------------
# the per-run references


def reference_index(sys_):
    """``at`` and ``prefix`` as (key, mask) lists, built run by run."""
    at = [{} for _ in range(sys_.horizon + 1)]
    prefix = {}
    for i, run in enumerate(sys_.runs):
        for m, world in enumerate(run.envs):
            at[m].setdefault(world, []).append(i)
            prefix.setdefault(run.obs[:m], []).append(i)
    return (
        [[(world, mask_of(ids)) for world, ids in row.items()] for row in at],
        [(s_a, mask_of(ids)) for s_a, ids in prefix.items()],
    )


def reference_obs_at(sys_):
    rows = [{} for _ in range(sys_.horizon + 1)]
    for i, run in enumerate(sys_.runs):
        for m in range(1, sys_.horizon + 1):
            rows[m].setdefault(run.obs[m - 1], []).append(i)
    return [[(o, mask_of(ids)) for o, ids in row.items()] for row in rows]


def reference_levels(sys_):
    by_rank = {}
    for i in range(len(sys_.runs)):
        by_rank.setdefault(rank_of(sys_.index.prior, Mask(1 << i)), []).append(i)
    return [(r, mask_of(by_rank[r])) for r in sorted(by_rank) if r != INF]


def reference_bcs(sys_, budget=20_000):
    """BCS1-BCS4 run by run, point by point; BCS5 from the package."""
    menu = sys_.menu or tuple(dict.fromkeys(o for r in sys_.runs for o in r.obs))

    def bcs1(run):
        bad = [x for x in run.envs if x not in sys_.universe]
        if bad:
            return f"environment state {sys_.vocab.world_str(bad[0])} outside the universe"
        return ""

    def bcs2(run):
        try:
            for o in run.obs:
                if not isinstance(o, Formula):
                    raise FormulaError(f"observation {o!r} is not an environment formula")
                sys_.vocab.extension(o)
        except FormulaError as exc:
            return f"observation not in the environment language: {exc}"
        return ""

    verdicts = {}

    def bcs3(run, m):
        last = run.obs[m - 1] if m else None
        if last not in verdicts:
            verdicts[last] = learn_failure(run, m)
        return verdicts[last]

    def learn_failure(run, m):
        if m == 0:
            wrong = [o for o in menu if model_check(sys_, (run, 0), Learn(o))]
            return f"learn({wrong[0]}) true at time 0" if wrong else ""
        if not model_check(sys_, (run, m), Learn(run.obs[m - 1])):
            return f"learn({run.obs[m-1]}) false right after observing it"
        wrong = [
            o for o in menu if o != run.obs[m - 1] and model_check(sys_, (run, m), Learn(o))
        ]
        return f"learn({wrong[0]}) true without being observed" if wrong else ""

    def bcs4(run, m):
        try:
            ext = sys_.vocab.extension(run.obs[m - 1])
        except FormulaError:
            return ""
        if run.envs[m] in ext:
            return ""
        return f"observation {run.obs[m-1]} false at time {m} in run {_run_str(sys_, run)}"

    times = range(sys_.horizon + 1)
    report = Report("bcs")
    report.add_first("BCS1", map(bcs1, sys_.runs))
    report.add_first("BCS2", map(bcs2, sys_.runs))
    report.add_first("BCS3", (bcs3(run, m) for run in sys_.runs for m in times))
    report.add_first("BCS4", (bcs4(run, m) for run in sys_.runs for m in times[1:]))
    report.add_first("BCS5", _check_conditioning(sys_, budget))
    return report


def reference_upd1(sys_, structure):
    report = Report("upd")
    return report.add_first("UPD1", (
        f"run visits world {sys_.vocab.world_str(x)} outside the structure"
        for run in sys_.runs
        for x in run.envs if x not in structure.universe
    ))


def reference_rev1(sys_):
    vocab = sys_.vocab
    report = Report("rev")
    return report.add_first("REV1", (
        f"environment changed from {vocab.world_str(run.envs[0])} to "
        f"{vocab.world_str(run.envs[m])} at time {m}"
        for run in sys_.runs
        for m in range(1, sys_.horizon + 1) if run.envs[m] != run.envs[0]
    ))


def reference_prop_diag(sys_, circuit):
    """``check_prop_diag`` with its cases collected run by run and
    PERSISTENCE decided per run."""
    report = Report("diagnosis")
    universe = sorted(sys_.universe)
    consistent = functools.cache(lambda o: consistent_faults(circuit, universe, o))
    cases = []
    seen = set()
    for run in sys_.runs:
        for m in range(sys_.horizon):
            prefix = run.local_state(m + 1)
            if prefix in seen:
                continue
            seen.add(prefix)
            before = diag(sys_, circuit, prefix[:-1])
            after = diag(sys_, circuit, prefix)
            cases.append((prefix, before, after, before & consistent(prefix[-1])))

    def minimal_consistent(prefix):
        faults = frozenset.intersection(*map(consistent, prefix))
        least = min((len(f) for f in faults), default=None)
        return frozenset(f for f in faults if len(f) == least)

    report.add_first("FILTER", (
        f"at {seq_str(prefix)}: filtering mismatch"
        for prefix, _, after, surviving in cases if surviving and after != surviving
    ))
    report.add_first("SURPRISE", (
        f"at {seq_str(prefix)}: surprise mismatch"
        for prefix, _, after, surviving in cases
        if not surviving and after != minimal_consistent(prefix)
    ))
    report.add_first("DISJOINT", (
        f"at {seq_str(prefix)}: explanations survived a surprise"
        for prefix, before, after, surviving in cases if not surviving and before & after
    ))
    report.add_first("CARDINALITY", (
        f"at {seq_str(prefix)}: fault cardinality did not grow"
        for prefix, before, after, _ in cases
        if before and after and not (before & after)
        and min(len(f) for f in after) <= min(len(f) for f in before)
    ))
    report.add_first("PERSISTENCE", (
        "a run changes its fault set over time"
        for run in sys_.runs
        if len({circuit.fault_set(s) for s in run.envs}) > 1
    ))
    return report


def reference_bel(sys_, s_a):
    """The worlds of the state's points that the conditioned point measure
    does not disbelieve: the points at a world against the other points."""
    measure = sys_.plaus_at(s_a)
    points = measure.carrier
    every = Mask((1 << len(points)) - 1)
    if measure.is_bottom(every):
        return frozenset()
    out = set()
    for world in {run.envs[t] for run, t in points}:
        holders = Mask(mask_of([i for i, (run, t) in enumerate(points) if run.envs[t] == world]))
        if measure.compare(Mask(every & ~holders), holders) is not Ordering.GREATER:
            out.add(world)
    return frozenset(out)


# ---------------------------------------------------------------------------
# systems: bundled, broken on purpose, reordered and seeded


CHAIN = Circuit(
    [Gate("c1", "AND", ("l1", "l2"), "l3"), Gate("c2", "NOT", ("l3",), "l4")],
    ["l1", "l2", "l4"],
)
CHAIN_TESTS = [{"l1": True, "l2": True}, {"l1": False, "l2": True}]


def ranked_over(runs, sys_, rank=lambda run: RANKS.get(run.envs[0], 0)):
    """``sys_``'s fields over other runs, ranked by ``rank``."""
    return System(
        sys_.vocab, tuple(runs), RankedMeasure(runs, [rank(r) for r in runs]), sys_.horizon,
        universe=sys_.universe, menu=sys_.menu,
    )


def narrow_ranked():
    """A ranked system whose universe leaves out world 00."""
    return system_from_ranking(
        PQ, RANKS, [TRUE, P_, Q_], 2, universe=frozenset({w("11"), w("10"), w("01")})
    )


def with_run(sys_, run, at=None):
    runs = list(sys_.runs)
    runs.insert(len(runs) // 2 if at is None else at, run)
    return ranked_over(runs, sys_)


def mutated(sys_, seed, extra=()):
    """``sys_`` with three runs changed at random (a world or an
    observation), its runs shuffled and random ranks."""
    rng = random.Random(seed)
    runs = list(sys_.runs)
    worlds = list(sys_.vocab.worlds())
    formulas = list(sys_.menu) + list(extra)
    for _ in range(3):
        i = rng.randrange(len(runs))
        envs, obs = list(runs[i].envs), list(runs[i].obs)
        if rng.random() < 0.5:
            envs[rng.randrange(len(envs))] = rng.choice(worlds)
        else:
            obs[rng.randrange(len(obs))] = rng.choice(formulas)
        runs[i] = Run(tuple(envs), tuple(obs))
    rng.shuffle(runs)
    ranks = {id(r): rng.randrange(3) for r in runs}
    return ranked_over(runs, sys_, lambda run: ranks[id(run)])


def shuffled(sys_, seed=0):
    """The same runs in another order, under the original prior."""
    runs = list(sys_.runs)
    random.Random(seed).shuffle(runs)
    return System(
        sys_.vocab, tuple(runs), sys_.prior, sys_.horizon, universe=sys_.universe, menu=sys_.menu
    )


def _chain_changing_fault():
    base = build_diag_system(CHAIN, CHAIN_TESTS)
    faulty = next(r for r in base.runs if CHAIN.fault_set(r.envs[0]))
    healthy = next(r for r in base.runs if not CHAIN.fault_set(r.envs[0]))
    changing = Run((healthy.envs[0],) + faulty.envs[1:], faulty.obs)
    return with_run(base, changing, at=3)


def _systems():
    ranked = scenario_system("ranked_basic.scn")
    narrow = narrow_ranked()
    chain = build_diag_system(CHAIN, CHAIN_TESTS)
    out = {
        "ranked_basic": ranked,
        "diag_three_gates": scenario_system("diag_three_gates.scn"),
        "small_update": scenario_system("small_update.scn"),
        "chain": chain,
        "outside-at-0": with_run(narrow, Run((w("00"),) * 3, (TRUE, TRUE))),
        "outside-later": with_run(narrow, Run((w("11"), w("00"), w("11")), (TRUE, TRUE))),
        "false-observation": with_run(narrow, Run((w("10"),) * 3, (TRUE, Q_))),
        "foreign-observation": with_run(narrow, Run((w("11"),) * 3, (Atom("zz"), TRUE))),
        "changing-fault": _chain_changing_fault(),
        "reordered-ranked": shuffled(ranked),
        "reordered-chain": shuffled(chain, 1),
        "reordered-update": shuffled(scenario_system("small_update.scn"), 2),
    }
    for seed in range(8):
        out[f"seeded-ranked-{seed}"] = mutated(narrow, seed, extra=(Atom("zz"), FALSE))
        out[f"seeded-chain-{seed}"] = mutated(chain, 100 + seed)
    return out


SYSTEMS = _systems()
CIRCUITS = {
    name: CHAIN for name in SYSTEMS if "chain" in name or name == "changing-fault"
}
CIRCUITS["diag_three_gates"] = load_scenario(os.path.join(SCENARIOS, "diag_three_gates.scn")).circuit


# ---------------------------------------------------------------------------
# the index


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_the_index_matches_the_run_by_run_build(name):
    sys_ = SYSTEMS[name]
    index = sys_.index
    at, prefix = reference_index(sys_)
    assert [list(row.items()) for row in index.at] == at
    assert list(index.prefix.items()) == prefix
    assert [list(row.items()) for row in index.obs_at] == reference_obs_at(sys_)


def test_equal_observations_group_together():
    # each run observes its own parse of p and q: equal, but distinct objects
    p1, p2, q1, q2 = (parse_formula(text) for text in ("p", "p", "q", "q"))
    assert p1 == p2 and p1 is not p2 and q1 == q2 and q1 is not q2
    obs = [(p1, q1), (TRUE, q2), (p2, TRUE), (p2, q2), (TRUE, q1)]
    runs = [Run((w("11"),) * 3, o) for o in obs]
    sys_ = System(PQ, runs, RankedMeasure(runs, [0, 1, 1, 2, 0]), 2)
    index = sys_.index
    _, prefix = reference_index(sys_)
    assert list(index.prefix.items()) == prefix
    assert [list(row.items()) for row in index.obs_at] == reference_obs_at(sys_)
    assert list(index.prefix) == [(), (P_,), (P_, Q_), (TRUE,), (TRUE, Q_), (P_, TRUE)]
    assert index.obs_at[1] == {P_: 0b01101, TRUE: 0b10010}
    assert index.obs_at[2] == {Q_: 0b11011, TRUE: 0b00100}


RANKED = sorted(name for name in SYSTEMS if "update" not in name)


@pytest.mark.parametrize("name", RANKED)
def test_rank_levels_are_the_per_run_ranks(name):
    # under a ranked prior, belief keeps the worlds of the event's
    # least-ranked runs: the first level of the per-run ranks that meets it
    sys_ = SYSTEMS[name]
    levels = reference_levels(sys_)
    for s_a, event in sys_.index.prefix.items():
        hits = next((level & event for _, level in levels if level & event), 0)
        expected = frozenset(sys_.runs[i].envs[len(s_a)] for i in bits(hits))
        assert believed(sys_, event, len(s_a)) == expected, s_a


def test_first_failure_is_run_major():
    describe = lambda i, m: f"run {i} at {m}"
    # run 1 fails at times 1 and 2, run 2 at time 0
    assert list(first_failure([0b100, 0b010, 0b010], describe)) == ["run 1 at 1"]
    assert list(first_failure([0b100, 0, 0b100], describe)) == ["run 2 at 0"]
    assert list(first_failure([0, 0, 0], describe)) == []
    assert list(first_failure([], describe)) == []


# ---------------------------------------------------------------------------
# the checkers


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_bcs_matches_the_per_run_closures(name):
    sys_ = SYSTEMS[name]
    assert validate_bcs(sys_).to_machine() == reference_bcs(sys_).to_machine()


def test_the_broken_systems_fail_where_they_were_broken():
    def failed(name):
        return [r.name for r in validate_bcs(SYSTEMS[name]).failures()]

    assert failed("outside-at-0") == ["BCS1"]
    assert failed("outside-later") == ["BCS1"]
    assert failed("false-observation") == ["BCS4"]
    assert failed("foreign-observation") == ["BCS2"]
    assert validate_bcs(SYSTEMS["outside-later"])["BCS1"].witness == (
        "environment state 00 outside the universe"
    )


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_rev1_matches_the_per_run_closure(name):
    sys_ = SYSTEMS[name]
    report = validate_rev(sys_, formula_probes=[], obs_sequences=[])
    assert report["REV1"].machine_line() == reference_rev1(sys_).machine_line()


def _upd1_cases():
    small = scenario_system("small_update.scn")
    structure = small.prior.structure
    narrow = hamming_structure(PQ, [w("11"), w("10"), w("01")])
    stray = Run((w("11"), w("00"), w("11")), (TRUE, TRUE))
    cases = {
        "small_update": (small, structure),
        "reordered-update": (SYSTEMS["reordered-update"], structure),
        "outside-the-structure": (with_run(small, stray), narrow),
    }
    for seed in range(4):
        cases[f"seeded-{seed}"] = (mutated(small, seed), narrow)
    return cases


UPD1_CASES = _upd1_cases()


@pytest.mark.parametrize("name", sorted(UPD1_CASES))
def test_upd1_matches_the_per_run_closure(name, monkeypatch):
    # only UPD1 is compared; the other conditions need a structure that
    # covers every run
    for check in ("_check_upd2", "_check_upd3", "_check_upd4"):
        monkeypatch.setattr(update, check, lambda *args: iter(()))
    sys_, structure = UPD1_CASES[name]
    got = validate_upd(sys_, structure)["UPD1"]
    assert got.machine_line() == reference_upd1(sys_, structure).machine_line()
    if name == "outside-the-structure":
        assert got.witness == "run visits world 00 outside the structure"


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_diagnosis_checks_match_the_per_run_cases(name):
    sys_, circuit = SYSTEMS[name], CIRCUITS[name]
    assert check_prop_diag(sys_, circuit).to_machine() == (
        reference_prop_diag(sys_, circuit).to_machine()
    )


def test_a_changing_fault_is_caught():
    report = check_prop_diag(SYSTEMS["changing-fault"], CHAIN)
    assert report["PERSISTENCE"].witness == "a run changes its fault set over time"


def test_validate_bcs_raises_when_the_prior_misses_a_run():
    ranked = SYSTEMS["ranked_basic"]
    prior = RankedMeasure(ranked.runs[1:], ranked.prior.ranks[1:])
    sys_ = System(PQ, ranked.runs, prior, ranked.horizon, menu=ranked.menu)
    with pytest.raises(PlausibilityError, match="outside a base carrier"):
        validate_bcs(sys_)


def test_check_bcs_exits_2_when_the_prior_misses_a_run(monkeypatch, capsys):
    def missing_first_run(scenario):
        sys_ = build_system(scenario)
        prior = RankedMeasure(sys_.runs[1:], sys_.prior.ranks[1:])
        return System(sys_.vocab, sys_.runs, prior, sys_.horizon, menu=sys_.menu)

    monkeypatch.setattr(cli, "build_system", missing_first_run)
    code = cli.main(["check-bcs", "--scenario", os.path.join(SCENARIOS, "ranked_basic.scn")])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: image positions outside a base carrier of 32\n"


# ---------------------------------------------------------------------------
# beliefs


def _bel_systems():
    ranked = SYSTEMS["ranked_basic"]
    menu = [TRUE, P_, Q_]
    worlds = tuple(PQ.worlds())
    by_world = RankedMeasure(worlds, [RANKS[x] for x in worlds])
    mapped = menu_system(
        PQ, [(x,) for x in worlds], menu, 2,
        lambda runs: MappedMeasure(runs, by_world, [run.envs[0] for run in runs]),
    )
    gappy = {x: (INF if x in (w("11"), w("01")) else r) for x, r in RANKS.items()}
    unreachable = {x: INF for x in RANKS}
    return {
        "ranked_basic": ranked,
        "diag_three_gates": SYSTEMS["diag_three_gates"],
        "reordered": SYSTEMS["reordered-ranked"],
        "mapped-onto-worlds": mapped,
        "infinite-ranks": system_from_ranking(PQ, gappy, menu, 2),
        "all-infinite": system_from_ranking(PQ, unreachable, menu, 1),
        "seeded": SYSTEMS["seeded-ranked-0"],
        "changing-fault": SYSTEMS["changing-fault"],
        "small_update": SYSTEMS["small_update"],
        "small_update-twin": statify(SYSTEMS["small_update"]).inner,
        "ranked_basic-twin": statify(ranked).inner,
    }


BEL_SYSTEMS = _bel_systems()


@pytest.mark.parametrize("name", sorted(BEL_SYSTEMS))
def test_bel_reads_the_rank_levels_as_conditioning_does(name):
    sys_ = BEL_SYSTEMS[name]
    states = list(sys_.index.prefix) + [(FALSE,), (TRUE,) * (sys_.horizon + 1)]
    for s_a in states:
        assert bel(sys_, s_a) == reference_bel(sys_, s_a), s_a
    if name == "all-infinite":
        assert bel(sys_, ()) == frozenset()


def test_bel_builds_no_conditioned_measure():
    sys_ = scenario_system("diag_three_gates.scn")
    for s_a in sys_.index.prefix:
        bel(sys_, s_a)
    assert sys_._conditioned == {}


# ---------------------------------------------------------------------------
# product blocks: the runs they expand to and the index read off them


def reference_static_runs(sys_):
    """A static system's runs, one world and one menu sequence at a time."""
    runs = []
    for x in sorted(sys_.universe):
        choices = [o for o in sys_.menu if x in sys_.vocab.extension(o)]
        for obs in itertools.product(choices, repeat=sys_.horizon):
            runs.append(Run((x,) * (sys_.horizon + 1), obs))
    return runs


def reference_update_runs(sys_):
    """``system_from_update``'s runs, one start world and then one (world,
    observation) step at a time, each step over every world."""
    worlds = sorted(sys_.universe)
    steps = [(x, o) for x in worlds for o in sys_.menu if x in sys_.vocab.extension(o)]
    runs = []
    for x in worlds:
        for tail in itertools.product(steps, repeat=sys_.horizon):
            runs.append(Run((x,) + tuple(y for y, _ in tail), tuple(o for _, o in tail)))
    return runs


def reference_gate(gate, values):
    """A gate's output on bool line ``values``."""
    ins = [values[i] for i in gate.inputs]
    if gate.kind == "NOT":
        return not ins[0]
    return {"AND": all, "OR": any, "XOR": lambda v: sum(v) % 2 == 1}[gate.kind](ins)


def reference_consistent_states(circuit):
    """The worlds whose healthy gates compute their outputs, world by world."""
    states = []
    for world in circuit.vocab.worlds():
        values = {l: circuit.line_value(world, l) for l in circuit.lines}
        faults = circuit.fault_set(world)
        if all(g.gid in faults or values[g.output] == reference_gate(g, values) for g in circuit.gates):
            states.append(world)
    return states


def reference_matching(circuit, worlds, test):
    return [
        s for s in worlds if all(circuit.line_value(s, l) == bool(v) for l, v in test.items())
    ]


def reference_diag_runs(circuit, tests):
    """``build_diag_system``'s runs, ranks and menu, run by run."""
    universe = reference_consistent_states(circuit)
    by_fault = {}
    for world in universe:
        by_fault.setdefault(circuit.fault_set(world), []).append(world)
    runs, ranks = [], []
    for fault, worlds in sorted(by_fault.items(), key=lambda kv: sorted(kv[0])):
        steps = [reference_matching(circuit, worlds, t) for t in tests]
        for w0 in worlds:
            for tail in itertools.product(*steps):
                runs.append(Run((w0,) + tail, tuple(circuit.io_formula(s) for s in tail)))
                ranks.append(len(fault))
    menu = tuple(dict.fromkeys(o for run in runs for o in run.obs))
    return runs, ranks, menu


PQR = Vocabulary(["p", "q", "r"])


def seeded_ranking(seed, horizon):
    """A ranking over ``p q r`` (some worlds unreachable) with a random menu
    of literals and two-literal clauses, at ``horizon``."""
    rng = random.Random(seed)
    ranks = {x: rng.choice([0, 1, 1, 2, 3, INF]) for x in PQR.worlds()}
    literals = [f(Atom(a)) for a in PQR.props for f in (lambda x: x, Not)]
    menu = rng.sample(literals, rng.randrange(1, 5))
    menu += [rng.choice([And, Or])(*rng.sample(literals, 2)) for _ in range(rng.randrange(3))]
    universe = frozenset(rng.sample(range(8), rng.randrange(5, 9)))
    return system_from_ranking(PQR, ranks, menu, horizon, universe=universe)


THREE_GATE = load_scenario(os.path.join(SCENARIOS, "diag_three_gates.scn")).circuit


def seeded_circuit(seed, tests):
    """The three-gate wiring, or a two-gate chain when there are three
    tests, with random gate kinds, observed lines and test vectors."""
    rng = random.Random(seed)
    kinds = ["AND", "OR", "XOR"]
    if tests < 3:
        gates = [Gate(g.gid, rng.choice(kinds), g.inputs, g.output) for g in THREE_GATE.gates]
    else:
        second = rng.choice(kinds + ["NOT"])
        gates = [
            Gate("c1", rng.choice(kinds), ("l1", "l2"), "l3"),
            Gate("c2", second, ("l3",) if second == "NOT" else ("l3", "l1"), "l4"),
        ]
    circuit = Circuit(gates)
    circuit = Circuit(gates, rng.sample(circuit.lines, rng.randrange(2, len(circuit.lines) + 1)))
    vectors = [{l: rng.random() < 0.5 for l in circuit.input_lines} for _ in range(tests)]
    return circuit, vectors


# an update case holds the arguments of the ``seeded_update`` fixture
BLOCK_CASES = {
    **{f"ranking-h{h}-{seed}": ("static", seeded_ranking(seed, h)) for h in range(4) for seed in range(3)},
    **{
        f"update-{kind}-h{h}-{seed}": ("update", (PQ, kind, seed, h))
        for kind in ("hamming", "random") for h in (1, 2, 3) for seed in range(2)
    },
    **{f"update-{kind}-pqr-h2": ("update", (PQR, kind, 0, 2)) for kind in ("hamming", "random")},
    "diag_three_gates": ("diag", (THREE_GATE, [{"l1": 1, "l2": 1, "l3": 0}, {"l1": 0, "l2": 1, "l3": 1}])),
    **{f"circuit-t{t}-{seed}": ("diag", seeded_circuit(seed, t)) for t in (1, 2, 3) for seed in range(3)},
}


def _block_system(name, seeded_update):
    kind, made = BLOCK_CASES[name]
    if kind == "diag":
        return build_diag_system(*made)
    return seeded_update(*made) if kind == "update" else made


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_blocks_expand_to_the_per_run_loops(name, seeded_update):
    kind, made = BLOCK_CASES[name]
    sys_ = _block_system(name, seeded_update)
    assert all(type(run) is Run for run in sys_.runs)
    if kind == "static":
        assert list(sys_.runs) == reference_static_runs(sys_)
    elif kind == "update":
        # one block over every world, whose runs reach the prior's cells in
        # lexicographic order
        assert len(sys_.blocks) == 1
        assert list(sys_.runs) == reference_update_runs(sys_)
        worlds = sorted(sys_.universe)
        assert sys_.prior.base.carrier == tuple(itertools.product(worlds, repeat=sys_.horizon + 1))
    else:
        runs, ranks, menu = reference_diag_runs(*made)
        assert list(sys_.runs) == runs
        assert list(sys_.prior.ranks) == ranks
        assert sys_.menu == menu


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_the_block_index_matches_the_run_by_run_build(name, seeded_update):
    sys_ = _block_system(name, seeded_update)
    assert sys_.blocks != ((sys_.runs,),)
    index = sys_.index
    at, prefix = reference_index(sys_)
    assert [list(row.items()) for row in index.at] == at
    assert list(index.prefix.items()) == prefix
    assert [list(row.items()) for row in index.obs_at] == reference_obs_at(sys_)
    # the same runs listed explicitly give the same index, order included
    explicit = System(sys_.vocab, sys_.runs, sys_.prior, sys_.horizon, sys_.universe, sys_.menu)
    assert explicit.blocks == ((sys_.runs,),)
    assert explicit.index.at == index.at and explicit.index.obs_at == index.obs_at
    assert list(explicit.index.prefix.items()) == list(index.prefix.items())


def test_menu_system_lists_true_first():
    sys_ = system_from_ranking(PQ, RANKS, [P_, TRUE, P_], 1)
    assert sys_.menu == (TRUE, P_)
    assert [run.obs for run in sys_.runs if run.envs[0] == w("11")] == [(TRUE,), (P_,)]


@pytest.mark.parametrize("seed", range(4))
def test_hand_made_blocks_with_wide_segments(seed):
    """Blocks whose factors span two times, next to an explicit one."""
    rng = random.Random(seed)
    worlds, formulas = list(PQ.worlds()), [TRUE, P_, Q_, Not(P_)]

    def segments(n, worlds_per, obs_per):
        return tuple(
            (tuple(rng.choices(worlds, k=worlds_per)), tuple(rng.choices(formulas, k=obs_per)))
            for _ in range(n)
        )

    blocks = (
        (segments(3, 2, 1), segments(2, 1, 1)),
        (segments(4, 3, 2),),
        (segments(2, 1, 0), segments(2, 1, 1), segments(3, 1, 1)),
    )
    runs = expand(blocks)
    assert len(runs) == 3 * 2 + 4 + 2 * 2 * 3
    assert list(runs[:6]) == [
        Run(a[0] + b[0], a[1] + b[1]) for a, b in itertools.product(*blocks[0])
    ]
    sys_ = System(PQ, runs, RankedMeasure(runs, [0] * len(runs)), 2, blocks=blocks)
    at, prefix = reference_index(sys_)
    assert [list(row.items()) for row in sys_.index.at] == at
    assert list(sys_.index.prefix.items()) == prefix
    assert [list(row.items()) for row in sys_.index.obs_at] == reference_obs_at(sys_)


@pytest.mark.parametrize("seed", range(6))
def test_consistent_and_matching_states_match_the_per_world_reads(seed):
    circuit, vectors = seeded_circuit(seed, 1 + seed % 3)
    universe = consistent_states(circuit)
    assert universe == reference_consistent_states(circuit)
    by_fault = {}
    for world in universe:
        by_fault.setdefault(circuit.fault_set(world), []).append(world)
    for worlds in [universe] + list(by_fault.values()):
        for test in vectors:
            assert matching_states(circuit, worlds, test) == reference_matching(circuit, worlds, test)


def test_matching_states_rejects_an_unknown_line():
    with pytest.raises(DiagnosisError, match="test sets unknown line 'typo'"):
        matching_states(THREE_GATE, consistent_states(THREE_GATE), {"l1": True, "typo": True})


def test_runs_hash_and_print_as_pairs_of_tuples():
    run = Run((w("11"), w("10")), (P_,))
    assert hash(run) == hash(((w("11"), w("10")), (P_,)))
    assert repr(run) == f"Run(envs=(3, 2), obs=({P_!r},))"
    assert run.local_state(1) == (P_,)


def test_run_shapes_are_checked_when_the_system_is_built():
    ranks = lambda runs: RankedMeasure(runs, [0] * len(runs))
    good = Run((w("11"),) * 3, (TRUE, TRUE))
    lopsided = Run((w("11"),) * 3, (TRUE,))  # made without complaint
    short = Run((w("11"),) * 2, (TRUE,))
    with pytest.raises(RunSystemError, match="one more environment state than observations"):
        System(PQ, [good, lopsided, short], ranks([good, lopsided, short]), 2)
    with pytest.raises(RunSystemError, match="all runs must share the system horizon"):
        System(PQ, [good, short], ranks([good, short]), 2)
    # a block with a step of the wrong shape, and blocks that miss a run
    start, step = (((w("11"),), ()),), (((w("11"),), (TRUE,)),)
    wide = (((w("11"), w("11")), (TRUE,)),)
    for blocks, message in (
        (((start, step, wide),), "one more environment state"),
        (((start, step),), "share the system horizon"),
        (((start, step, step), (start, step, step)), "the blocks hold 2 runs, not 1"),
        (((start, step, (((w("11"),), (P_,)),)),), "run 0 is not the one its block expands to"),
    ):
        with pytest.raises(RunSystemError, match=message):
            System(PQ, [good], ranks([good]), 2, blocks=blocks)
