"""Circuit diagnosis as a belief change system.

The environment state pairs a persistent set of faulty gates with current
line values; states are admissible when every healthy gate's output equals
its function of the inputs (faulty gates are unconstrained, which subsumes
stuck-at behaviour).  The agent drives test inputs, observes line values,
and ranks runs by how many gates they fault: fewer faults, more plausible.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from math import prod
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .formulas import (
    Atom,
    BeliefChangeError,
    Formula,
    Not,
    Vocabulary,
    conj,
    formula_of_extension,
    seq_str,
)
from .plausibility import RankedMeasure, bits, union
from .reports import Report
from .revision import validate_rev, _default_obs_sequences
from .systems import LocalState, Run, Runs, System, bel, first_failure

GATE_KINDS = ("AND", "OR", "NOT", "XOR")
_GATE_OPS = {"AND": operator.and_, "OR": operator.or_, "XOR": operator.xor}


class DiagnosisError(BeliefChangeError):
    pass


@dataclass(frozen=True)
class Gate:
    gid: str
    kind: str
    inputs: Tuple[str, ...]
    output: str

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise DiagnosisError(f"unknown gate kind {self.kind!r}")
        if self.kind == "NOT" and len(self.inputs) != 1:
            raise DiagnosisError("NOT gates take exactly one input")
        if self.kind != "NOT" and len(self.inputs) < 2:
            raise DiagnosisError(f"{self.kind} gates need at least two inputs")

    def evaluate(self, values: Mapping[str, int], true: int) -> int:
        """The output for the input ``values``, world masks (bit w for world
        w) with ``true`` the mask of every world."""
        ins = [values[i] for i in self.inputs]
        if self.kind == "NOT":
            return true ^ ins[0]
        return functools.reduce(_GATE_OPS[self.kind], ins)  # XOR as parity


class Circuit:
    """An acyclic gate network with named lines.

    The vocabulary has one fault proposition per gate (``f_<gate>``) and
    one value proposition per line (``h_<line>``); a world is a full
    assignment to both.
    """

    def __init__(self, gates: Sequence[Gate], observed: Optional[Sequence[str]] = None):
        self.gates = tuple(gates)
        if not self.gates:
            raise DiagnosisError("a circuit needs at least one gate")
        driven: Dict[str, Gate] = {}
        for g in self.gates:
            if g.output in driven:
                raise DiagnosisError(f"line {g.output} driven by more than one gate")
            driven[g.output] = g
        lines: List[str] = []
        for g in self.gates:
            for line in g.inputs + (g.output,):
                if line not in lines:
                    lines.append(line)
        self.lines = tuple(lines)
        self.driven = driven
        self.input_lines = tuple(l for l in lines if l not in driven)
        consumed = {i for g in self.gates for i in g.inputs}
        self.output_lines = tuple(l for l in lines if l in driven and l not in consumed)
        self._check_acyclic()
        if observed is None:
            observed = self.input_lines + self.output_lines
        unknown = [l for l in observed if l not in self.lines]
        if unknown:
            raise DiagnosisError(f"observed line {unknown[0]!r} does not exist")
        self.observed = tuple(observed)
        self.vocab = Vocabulary(
            [f"f_{g.gid}" for g in self.gates] + [f"h_{l}" for l in self.lines]
        )
        # fault propositions come first, so a world's fault set is read off
        # its high bits: one frozenset per fault assignment, shared by worlds
        ids = [g.gid for g in self.gates]
        top = len(ids) - 1
        self._fault_sets = tuple(
            frozenset(g for i, g in enumerate(ids) if high >> (top - i) & 1)
            for high in range(1 << len(ids))
        )
        # one observation formula per observed reading: the observed bits
        self._observed_bits = self.vocab.world_of({f"h_{l}": True for l in self.observed})
        # the bit position of each line's value proposition
        self._line_shift = {l: len(self.lines) - 1 - i for i, l in enumerate(self.lines)}
        self._readings: Dict[int, Formula] = {}

    def _check_acyclic(self):
        depth: Dict[str, int] = {l: 0 for l in self.lines if l not in self.driven}
        remaining = list(self.gates)
        while remaining:
            progressed = [
                g for g in remaining if all(i in depth for i in g.inputs)
            ]
            if not progressed:
                raise DiagnosisError("circuit contains a cycle")
            for g in progressed:
                depth[g.output] = 1 + max(depth[i] for i in g.inputs)
            remaining = [g for g in remaining if g not in progressed]

    # -- state helpers -------------------------------------------------------

    def fault_set(self, world: int) -> FrozenSet[str]:
        return self._fault_sets[world >> len(self.lines)]

    def line_value(self, world: int, line: str) -> bool:
        return self.vocab.truth(world, f"h_{line}")

    def io_formula(self, world: int) -> Formula:
        """Conjunction of observed line literals, in declaration order; worlds
        with one observed reading share one formula object."""
        reading = world & self._observed_bits
        formula = self._readings.get(reading)
        if formula is None:
            literals = []
            for line in self.observed:
                atom = Atom(f"h_{line}")
                literals.append(atom if self.line_value(world, line) else Not(atom))
            formula = self._readings[reading] = conj(literals)
        return formula


def consistent_states(circuit: Circuit) -> List[int]:
    """All worlds whose healthy gates compute correctly; persistent faults
    are a run-level constraint, not a state-level one.

    Decided for every world at once: each proposition is read as the mask
    of the worlds where it holds (bit w for world w), from its bit position
    in a world."""
    size = circuit.vocab.size
    every = (1 << (1 << size)) - 1

    def holds(position: int) -> int:
        run = 1 << position  # worlds alternate in runs of 2^position
        return every // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)

    values = {l: holds(s) for l, s in circuit._line_shift.items()}
    ok = every
    for i, g in enumerate(circuit.gates):
        ok &= holds(size - 1 - i) | ~(values[g.output] ^ g.evaluate(values, every))
    return bits(ok)


def matching_states(circuit: Circuit, worlds: Iterable[int], test: Mapping[str, bool]) -> List[int]:
    """The worlds, in order, whose lines take the values ``test`` sets."""
    care = want = 0
    for line, value in test.items():
        if line not in circuit._line_shift:
            raise DiagnosisError(f"test sets unknown line {line!r}")
        bit = 1 << circuit._line_shift[line]
        care |= bit
        want |= bit if value else 0
    return [w for w in worlds if w & care == want]


def build_diag_system(circuit: Circuit, tests: Sequence[Mapping[str, bool]]) -> System:
    """Runs: pick a fault set, keep it forever, and at each step show line
    values consistent with that fault set and the step's test inputs; the
    agent observes the designated lines.  The prior ranks each run by the
    size of its fault set."""
    if not tests:
        raise DiagnosisError("at least one test vector is required")
    for t in tests:
        unknown = [l for l in t if l not in circuit.input_lines]
        if unknown:
            raise DiagnosisError(f"test sets non-input line {unknown[0]!r}")
    universe = consistent_states(circuit)
    by_fault: Dict[FrozenSet[str], List[int]] = {}
    for world in universe:
        by_fault.setdefault(circuit.fault_set(world), []).append(world)

    reading = {world: circuit.io_formula(world) for world in universe}
    # one block per fault group: an initial world, then per test a world
    # that matches it, observed through its reading
    blocks = []
    ranks: List[int] = []  # one per run, by its fault group
    menu: Dict[Formula, None] = {}  # in the order the runs first reach them
    for fault, worlds in sorted(by_fault.items(), key=lambda kv: sorted(kv[0])):
        steps = [matching_states(circuit, worlds, t) for t in tests]
        blocks.append((tuple(((w0,), ()) for w0 in worlds),)
                      + tuple(tuple(((s,), (reading[s],)) for s in step) for step in steps))
        ranks += [len(fault)] * (len(worlds) * prod(map(len, steps)))
        # the readings in the order the group's runs first reach them: step
        # j's i-th world first shows in run i * (product of later steps' sizes)
        first: Dict[Formula, Tuple[int, int]] = {}
        if all(steps):
            for j, step in enumerate(steps):
                later = prod(map(len, steps[j + 1:]))
                for i, s in enumerate(step):
                    first[reading[s]] = min(first.get(reading[s], (i * later, j)), (i * later, j))
        menu.update(dict.fromkeys(sorted(first, key=first.__getitem__)))
    runs = Runs(blocks)
    return System(
        vocab=circuit.vocab,
        runs=runs,
        prior=RankedMeasure(runs, ranks),
        horizon=len(tests),
        universe=frozenset(universe),
        menu=tuple(menu),
        blocks=tuple(blocks),
    )


def diag(sys: System, circuit: Circuit, s_a: LocalState) -> FrozenSet[FrozenSet[str]]:
    """Fault sets not ruled out by current beliefs: those whose complete
    fault description is not disbelieved."""
    return frozenset(circuit.fault_set(w) for w in bel(sys, tuple(s_a)))


def consistent_faults(
    circuit: Circuit, universe: Iterable[int], observation: Formula
) -> FrozenSet[FrozenSet[str]]:
    """The fault sets of the worlds of ``universe`` where the observation holds."""
    ext = circuit.vocab.extension(observation)
    return frozenset(circuit.fault_set(w) for w in universe if w in ext)


def fault_consistent_with(circuit: Circuit, universe: Iterable[int], fault: FrozenSet[str], observation: Formula) -> bool:
    return fault in consistent_faults(circuit, universe, observation)


def check_prop_diag(sys: System, circuit: Circuit) -> Report:
    """Belief dynamics of diagnosis, step by step along every run prefix.

    A compatible observation filters the current diagnosis set; an
    incompatible (surprising) one replaces it with all minimal-cardinality
    fault sets consistent with the whole observation history.  Surprises
    discard every previous explanation and strictly grow the fault
    cardinality.
    """
    report = Report("diagnosis")
    universe = sorted(sys.universe)
    consistent = functools.cache(lambda o: consistent_faults(circuit, universe, o))

    # (prefix, diagnoses before its last observation, after it, filtered)
    cases = []
    for prefix in sys.index.prefix:  # in the order the runs first reach them
        if prefix:
            before = diag(sys, circuit, prefix[:-1])
            after = diag(sys, circuit, prefix)
            surviving = before & consistent(prefix[-1])
            cases.append((prefix, before, after, surviving))

    def minimal_consistent(prefix) -> FrozenSet[FrozenSet[str]]:
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
    # the runs per (time, fault set); a run that keeps its fault set is in
    # the mask of its time-0 fault set at every time
    faults_at = []
    for row in sys.index.at:
        faults: Dict[FrozenSet[str], int] = {}
        for w, k in row.items():
            fault = circuit.fault_set(w)
            faults[fault] = faults.get(fault, 0) | k
        faults_at.append(faults)
    changed = [
        union(k & ~faults_at[0].get(fault, 0) for fault, k in faults.items())
        for faults in faults_at
    ]
    report.add_first("PERSISTENCE", first_failure(
        changed, lambda i, m: "a run changes its fault set over time"
    ))
    return report


def revision_report(sys: System, circuit: Circuit, budget: int = 100_000) -> Report:
    """Revision-condition verdicts for the diagnosis system.

    Fault literals are injected as candidate observations: they can never
    actually be observed, which is exactly what separates the strong
    observation-neutrality condition (fails) from its observable-only
    weakening (holds).  ``budget`` is :func:`validate_rev`'s.
    """
    fault_probes = [(Atom(f"f_{g.gid}"),) for g in circuit.gates]
    obs_sequences = _default_obs_sequences(sys, 1) + fault_probes
    return validate_rev(sys, obs_sequences=obs_sequences, budget=budget)


def fault_projection(sys: System, circuit: Circuit) -> System:
    """Report-level projection onto the fault vocabulary alone.

    Line values change over time, so the full system breaks the static-
    propositions condition; faults are persistent, so rewriting each
    observation as the fault formula it supports yields an equivalent
    system about faults that satisfies it.
    """
    fault_vocab = Vocabulary([f"f_{g.gid}" for g in circuit.gates])
    universe = sorted(sys.universe)

    def fault_world(fault: FrozenSet[str]) -> int:
        return fault_vocab.world_of({f"f_{g.gid}": g.gid in fault for g in circuit.gates})

    obs_cache: Dict[Formula, Formula] = {}

    def project_obs(observation: Formula) -> Formula:
        cached = obs_cache.get(observation)
        if cached is None:
            compatible = map(fault_world, consistent_faults(circuit, universe, observation))
            cached = formula_of_extension(frozenset(compatible), fault_vocab)
            obs_cache[observation] = cached
        return cached

    projected: Dict[Run, int] = {}
    for run in sys.runs:
        fault = circuit.fault_set(run.envs[0])
        new_run = Run(
            (fault_world(fault),) * (sys.horizon + 1),
            tuple(project_obs(o) for o in run.obs),
        )
        projected.setdefault(new_run, len(fault))
    runs = tuple(projected)
    prior = RankedMeasure(runs, tuple(projected.values()))
    menu = tuple(dict.fromkeys(o for r in runs for o in r.obs))
    return System(
        vocab=fault_vocab,
        runs=runs,
        prior=prior,
        horizon=sys.horizon,
        universe=fault_vocab.all_worlds(),
        menu=menu,
    )


# ---------------------------------------------------------------------------
# circuit text format


def parse_circuit(text: str) -> Tuple[Circuit, List[Dict[str, bool]]]:
    """Parse the line-oriented circuit description.

    Directives: ``gate <id> <KIND> <in...> -> <out>``, ``observe <line...>``
    (optional; defaults to input and output lines), and ``test <line>=<bit>
    ...`` one per test step.
    """
    gates: List[Gate] = []
    observed: Optional[List[str]] = None
    tests: List[Dict[str, bool]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "gate":
            if len(parts) < 6 or parts[-2] != "->":
                raise DiagnosisError(f"line {lineno}: malformed gate directive")
            gates.append(Gate(parts[1], parts[2], tuple(parts[3:-2]), parts[-1]))
        elif kind == "observe":
            observed = parts[1:]
        elif kind == "test":
            assignment: Dict[str, bool] = {}
            for item in parts[1:]:
                name, _, bit = item.partition("=")
                if bit not in ("0", "1"):
                    raise DiagnosisError(f"line {lineno}: bad assignment {item!r}")
                assignment[name] = bit == "1"
            tests.append(assignment)
        else:
            raise DiagnosisError(f"line {lineno}: unknown directive {kind!r}")
    circuit = Circuit(gates, observed)
    for t in tests:
        missing = [l for l in circuit.input_lines if l not in t]
        if missing:
            raise DiagnosisError(f"test leaves input line {missing[0]!r} unset")
    return circuit, tests
