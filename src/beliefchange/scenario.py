"""Scenario files: a line-oriented description of vocabulary, prior,
observation menu, and observation sequence.

Blocks are introduced by a keyword at column zero; table-like blocks
(ranked priors, preference pairs, distance tables, circuits) continue on
indented lines.  ``#`` starts a comment anywhere.  Worlds are written as
bit strings in vocabulary order, e.g. ``10`` over ``vocab p q`` is the
world where p holds and q does not.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from .diagnosis import Circuit, DiagnosisError, build_diag_system, parse_circuit
from .formulas import (
    BeliefChangeError,
    Formula,
    FormulaError,
    Vocabulary,
    parse_formula,
    print_formula,
)
from .plausibility import MappedMeasure, from_preference
from .revision import min_rank_worlds, system_from_ranking
from .systems import System, menu_system
from .update import (
    DistancePoset,
    UpdateError,
    UpdateStructure,
    hamming_structure,
    system_from_update,
)

PRIOR_KINDS = ("ranked", "preference", "lexicographic")


class ScenarioError(BeliefChangeError):
    def __init__(self, message: str, lineno: Optional[int] = None):
        super().__init__(f"line {lineno}: {message}" if lineno else message)
        self.lineno = lineno


@dataclass
class Scenario:
    """Validated scenario contents; ``build_system`` turns one into runs."""

    vocab: Vocabulary
    horizon: int
    prior_kind: str
    menu: Tuple[Formula, ...]
    observations: Tuple[Formula, ...] = ()
    belief: Optional[Formula] = None
    ranks: Optional[Dict[int, int]] = None
    preference_pairs: Optional[Tuple[Tuple[int, int], ...]] = None
    distance_kind: Optional[str] = None
    distance_table: Optional[Dict[Tuple[int, int], str]] = None
    distance_order: Tuple[Tuple[str, str], ...] = ()
    circuit: Optional[Circuit] = None
    tests: Tuple[Mapping[str, bool], ...] = ()
    _structure: Optional[UpdateStructure] = field(default=None, init=False, repr=False, compare=False)

    def update_structure(self) -> UpdateStructure:
        """The distance block's structure, built on the first call (for a
        table, by validation) and kept."""
        if self._structure is None:
            if self.distance_kind == "hamming":
                self._structure = hamming_structure(self.vocab)
            elif self.distance_kind == "table":
                labels = [v for v in self.distance_table.values() if v != 0]
                poset = DistancePoset.build(labels, self.distance_order)
                self._structure = UpdateStructure(
                    self.vocab, self.vocab.worlds(), self.distance_table, poset
                )
            else:
                raise ScenarioError("scenario has no distance block")
        return self._structure


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].rstrip()


def load_scenario_text(text: str) -> Scenario:
    lines = text.splitlines()
    fields: Dict[str, object] = {
        "vocab": None,
        "horizon": None,
        "prior": None,
        "menu": [],
        "observe": [],
        "belief": None,
        "distance": None,
        "order": [],
        "circuit": None,
    }
    blocks: Dict[str, List[Tuple[int, str]]] = {"prior": [], "distance": [], "circuit": []}
    current_block: Optional[str] = None

    for lineno, raw in enumerate(lines, start=1):
        line = _strip(raw)
        if not line.strip():
            continue
        if line[0] in " \t":
            if current_block is None:
                raise ScenarioError("indented line outside any block", lineno)
            blocks[current_block].append((lineno, line.strip()))
            continue
        current_block = None
        parts = line.split(None, 1)
        keyword, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        if keyword == "vocab":
            fields["vocab"] = (lineno, rest.split())
        elif keyword == "horizon":
            fields["horizon"] = (lineno, rest.strip())
        elif keyword == "belief":
            fields["belief"] = (lineno, rest.strip())
        elif keyword == "prior":
            fields["prior"] = (lineno, rest.strip())
            current_block = "prior"
        elif keyword == "menu":
            fields["menu"].append((lineno, rest))
        elif keyword == "observe":
            fields["observe"].append((lineno, rest.strip()))
        elif keyword == "distance":
            fields["distance"] = (lineno, rest.strip())
            current_block = "distance"
        elif keyword == "order":
            fields["order"].append((lineno, rest))
        elif keyword == "circuit":
            fields["circuit"] = lineno
            current_block = "circuit"
        else:
            raise ScenarioError(f"unknown directive {keyword!r}", lineno)

    return _assemble(fields, blocks)


def _assemble(fields, blocks) -> Scenario:
    if fields["circuit"] is not None:
        return _assemble_circuit(fields, blocks)
    if fields["vocab"] is None:
        raise ScenarioError("missing vocab directive")
    lineno, names = fields["vocab"]
    try:
        vocab = Vocabulary(names)
    except FormulaError as exc:
        raise ScenarioError(str(exc), lineno)

    if fields["horizon"] is None:
        raise ScenarioError("missing horizon directive")
    lineno, text = fields["horizon"]
    if not text.isdigit() or int(text) < 1:
        raise ScenarioError("horizon must be a positive integer", lineno)
    horizon = int(text)

    if fields["prior"] is None:
        raise ScenarioError("missing prior directive")
    lineno, kind = fields["prior"]
    if kind not in PRIOR_KINDS:
        raise ScenarioError(f"prior kind must be one of {PRIOR_KINDS}", lineno)

    menu = []
    for lineno, rest in fields["menu"]:
        for chunk in rest.split(","):
            chunk = chunk.strip()
            if chunk:
                menu.append(_parse(chunk, vocab, lineno))
    observations = tuple(
        _parse(text, vocab, lineno) for lineno, text in fields["observe"]
    )
    belief = None
    if fields["belief"] is not None:
        lineno, text = fields["belief"]
        belief = _parse(text, vocab, lineno)

    ranks = None
    preference_pairs = None
    if kind == "ranked":
        ranks = {}
        if not blocks["prior"]:
            raise ScenarioError("ranked prior needs indented world/rank rows")
        for lineno, row in blocks["prior"]:
            parts = row.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise ScenarioError("expected '<world-bits> <rank>'", lineno)
            ranks[_world(parts[0], vocab, lineno)] = int(parts[1])
        missing = [w for w in vocab.worlds() if w not in ranks]
        if missing:
            raise ScenarioError(
                f"world {vocab.world_str(missing[0])} has no rank"
            )
    elif kind == "preference":
        pairs = []
        for lineno, row in blocks["prior"]:
            parts = row.split()
            if len(parts) != 3 or parts[1] != "<":
                raise ScenarioError("expected '<world-bits> < <world-bits>'", lineno)
            pairs.append(
                (_world(parts[0], vocab, lineno), _world(parts[2], vocab, lineno))
            )
        preference_pairs = tuple(pairs)

    distance_kind = None
    distance_table = None
    order_pairs: List[Tuple[str, str]] = []
    if fields["distance"] is not None:
        lineno, dkind = fields["distance"]
        if dkind not in ("hamming", "table"):
            raise ScenarioError("distance must be 'hamming' or 'table'", lineno)
        distance_kind = dkind
        if dkind == "table":
            distance_table = {}
            for lno, row in blocks["distance"]:
                parts = row.split()
                if len(parts) != 3:
                    raise ScenarioError("expected '<world> <world> <label>'", lno)
                a = _world(parts[0], vocab, lno)
                b = _world(parts[1], vocab, lno)
                label = parts[2]
                distance_table[(a, b)] = 0 if label == "0" else label
            labels = set(distance_table.values())
            for lno, rest in fields["order"]:
                for chunk in rest.split(","):
                    sides = [s.strip() for s in chunk.split("<")]
                    if len(sides) != 2 or not all(sides):
                        raise ScenarioError("expected 'label < label' pairs", lno)
                    for side in sides:
                        if side not in labels:
                            raise ScenarioError(f"order mentions unknown label {side!r}", lno)
                    order_pairs.append((sides[0], sides[1]))
    if kind == "lexicographic" and distance_kind is None:
        raise ScenarioError("lexicographic prior requires a distance block")
    if kind != "lexicographic" and distance_kind is not None:
        raise ScenarioError("distance block only makes sense with a lexicographic prior")

    scenario = Scenario(
        vocab=vocab,
        horizon=horizon,
        prior_kind=kind,
        menu=tuple(dict.fromkeys(menu)),
        observations=observations,
        belief=belief,
        ranks=ranks,
        preference_pairs=preference_pairs,
        distance_kind=distance_kind,
        distance_table=distance_table,
        distance_order=tuple(order_pairs),
    )
    _validate(scenario)
    return scenario


def _assemble_circuit(fields, blocks) -> Scenario:
    body = "\n".join(row for _, row in blocks["circuit"])
    try:
        circuit, tests = parse_circuit(body)
    except DiagnosisError as exc:
        raise ScenarioError(str(exc), fields["circuit"])
    if not tests:
        raise ScenarioError("circuit scenario needs at least one test", fields["circuit"])
    vocab = circuit.vocab
    observations = tuple(
        _parse(text, vocab, lineno) for lineno, text in fields["observe"]
    )
    horizon = len(tests)
    if fields["horizon"] is not None:
        lineno, text = fields["horizon"]
        if not text.isdigit() or int(text) != horizon:
            raise ScenarioError("circuit horizon is the number of tests", lineno)
    scenario = Scenario(
        vocab=vocab,
        horizon=horizon,
        prior_kind="ranked",
        menu=(),
        observations=observations,
        circuit=circuit,
        tests=tuple(tests),
    )
    _validate(scenario)
    return scenario


def _parse(text: str, vocab: Vocabulary, lineno: int) -> Formula:
    try:
        return parse_formula(text, vocab)
    except FormulaError as exc:
        raise ScenarioError(str(exc), lineno)


def _world(bits: str, vocab: Vocabulary, lineno: int) -> int:
    try:
        return vocab.world_from_str(bits)
    except FormulaError as exc:
        raise ScenarioError(str(exc), lineno)


def _validate(s: Scenario):
    if s.observations and len(s.observations) > s.horizon:
        raise ScenarioError("more observations than the horizon allows")
    if not s.menu and s.circuit is None:
        raise ScenarioError("missing menu directive")
    if s.prior_kind == "lexicographic" and s.distance_kind == "table":
        try:
            s.update_structure()
        except UpdateError as exc:
            raise ScenarioError(str(exc))
    if s.belief is not None and s.prior_kind == "ranked":
        if s.vocab.extension(s.belief) != min_rank_worlds(s.ranks, s.ranks):
            raise ScenarioError(
                "belief formula must denote exactly the rank-minimal worlds"
            )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario_text(fh.read())


# ---------------------------------------------------------------------------
# building and printing


def build_system(scenario: Scenario) -> System:
    if scenario.circuit is not None:
        return build_diag_system(scenario.circuit, scenario.tests)
    if scenario.prior_kind == "ranked":
        return system_from_ranking(
            scenario.vocab, scenario.ranks, scenario.menu, scenario.horizon
        )
    if scenario.prior_kind == "preference":
        return _system_from_preference(scenario)
    return system_from_update(
        scenario.update_structure(), scenario.horizon, scenario.menu
    )


def _system_from_preference(scenario: Scenario) -> System:
    """Static runs as in the ranked case, under the world-level preference
    order read through run -> initial world (a world is its own position
    in the carrier): runs from one world are order-equivalent."""
    vocab = scenario.vocab
    worlds = from_preference(tuple(vocab.worlds()), scenario.preference_pairs)
    return menu_system(
        vocab,
        [(w,) for w in vocab.worlds()],
        scenario.menu,
        scenario.horizon,
        lambda runs: MappedMeasure(runs, worlds, runs.initial_worlds()),
    )


def scenario_to_text(s: Scenario) -> str:
    """Deterministic re-emission of a scenario (the round-trip printer)."""
    if s.circuit is not None:
        lines = ["circuit"]
        for g in s.circuit.gates:
            lines.append(f"  gate {g.gid} {g.kind} {' '.join(g.inputs)} -> {g.output}")
        lines.append("  observe " + " ".join(s.circuit.observed))
        for test in s.tests:
            row = " ".join(f"{k}={int(v)}" for k, v in sorted(test.items()))
            lines.append(f"  test {row}")
        for o in s.observations:
            lines.append(f"observe {print_formula(o)}")
        return "\n".join(lines) + "\n"
    lines = ["vocab " + " ".join(s.vocab.props), f"horizon {s.horizon}"]
    if s.belief is not None:
        lines.append(f"belief {print_formula(s.belief)}")
    lines.append(f"prior {s.prior_kind}")
    if s.prior_kind == "ranked":
        for w in sorted(s.ranks):
            lines.append(f"  {s.vocab.world_str(w)} {s.ranks[w]}")
    elif s.prior_kind == "preference":
        for a, b in s.preference_pairs:
            lines.append(f"  {s.vocab.world_str(a)} < {s.vocab.world_str(b)}")
    if s.distance_kind == "hamming":
        lines.append("distance hamming")
    elif s.distance_kind == "table":
        lines.append("distance table")
        for (a, b), label in sorted(s.distance_table.items()):
            lines.append(f"  {s.vocab.world_str(a)} {s.vocab.world_str(b)} {label}")
        if s.distance_order:
            lines.append(
                "order " + ", ".join(f"{a} < {b}" for a, b in s.distance_order)
            )
    lines.append("menu " + ", ".join(print_formula(f) for f in s.menu))
    for o in s.observations:
        lines.append(f"observe {print_formula(o)}")
    return "\n".join(lines) + "\n"
