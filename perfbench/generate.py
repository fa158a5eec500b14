"""Seeded scenario generators.

Each returns the scenario text the command line reads and the facts the
reference computations need, so checks never re-read the program's own
parse of a file.
"""
from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from reference import Gate, all_worlds, parse_dnf, simulate_reading

LABELS = ("a", "b", "c", "d")
UPDATE_MENU = ("true", "p", "!q")
RANKED_MENU = ("true", "p", "!p", "q", "!q", "r", "!r")
GATE_KINDS = ("AND", "OR", "XOR")
# the topology of the bundled diag_three_gates.scn
GATE_WIRING = (("c1", ("l1", "l2"), "l4"), ("c2", ("l2", "l3"), "l5"), ("c3", ("l4", "l5"), "l6"))
INPUT_LINES = ("l1", "l2", "l3")
OBSERVED_LINES = ("l1", "l2", "l3", "l6")


def distance_table(rng, props) -> Tuple[List[str], Dict, List[Tuple[str, str]]]:
    """Scenario lines for a random distance table with a random strict
    order over the labels it uses; labels it does not use never appear."""
    worlds = all_worlds(props)
    pool = LABELS[: rng.randint(1, len(LABELS))]
    table = {(a, b): rng.choice(pool) for a, b in itertools.permutations(worlds, 2)}
    used = sorted(set(table.values()))
    rng.shuffle(used)
    order = [(x, y) for x, y in itertools.combinations(used, 2) if rng.random() < 0.5]
    lines = ["distance table"] + [f"  {a} {b} {label}" for (a, b), label in table.items()]
    if order:
        lines.append("order " + ", ".join(f"{x} < {y}" for x, y in order))
    return lines, table, order


def update_scenario(rng) -> Tuple[str, dict]:
    props = ("p", "q")
    table_lines, table, order = distance_table(rng, props)
    observed = [rng.choice(UPDATE_MENU) for _ in range(2)]
    lines = ["vocab p q", "horizon 2", "prior lexicographic", *table_lines,
             "menu " + ", ".join(UPDATE_MENU)] + [f"observe {o}" for o in observed]
    facts = {"props": props, "table": table, "order": order,
             "observations": [parse_dnf(o, props) for o in observed]}
    return "\n".join(lines) + "\n", facts


def ranking(rng, props) -> Tuple[List[str], Dict[str, int]]:
    ranks = {w: rng.randint(0, 3) for w in all_worlds(props)}
    return ["prior ranked"] + [f"  {w} {r}" for w, r in ranks.items()], ranks


def ranked_scenario(rng) -> Tuple[str, dict]:
    props = ("p", "q", "r")
    prior_lines, ranks = ranking(rng, props)
    observed = [rng.choice(RANKED_MENU) for _ in range(3)]
    lines = ["vocab p q r", "horizon 3", *prior_lines,
             "menu " + ", ".join(RANKED_MENU)] + [f"observe {o}" for o in observed]
    facts = {"props": props, "ranks": ranks,
             "observations": [parse_dnf(o, props) for o in observed]}
    return "\n".join(lines) + "\n", facts


def circuit_scenario(rng) -> Tuple[str, dict]:
    gates: List[Gate] = [
        (gid, rng.choice(GATE_KINDS), inputs, out) for gid, inputs, out in GATE_WIRING
    ]
    tests = [{line: rng.random() < 0.5 for line in INPUT_LINES} for _ in range(2)]
    faults = frozenset(g[0] for g in gates if rng.random() < 0.5)
    readings = [simulate_reading(gates, t, faults, OBSERVED_LINES, rng) for t in tests]
    lines = ["circuit"]
    lines += [f"  gate {gid} {kind} {a} {b} -> {out}" for gid, kind, (a, b), out in gates]
    lines.append("  observe " + " ".join(OBSERVED_LINES))
    lines += ["  test " + " ".join(f"{k}={int(v)}" for k, v in t.items()) for t in tests]
    lines += [
        "observe " + " & ".join(f"h_{k}" if v else f"!h_{k}" for k, v in r.items())
        for r in readings
    ]
    return "\n".join(lines) + "\n", {"gates": gates, "tests": tests, "readings": readings}


def agm_scenario(rng) -> str:
    prior_lines, _ = ranking(rng, ("p", "q", "r"))
    return "\n".join(["vocab p q r", "horizon 1", *prior_lines, "menu true"]) + "\n"


def km_scenario(rng) -> str:
    table_lines, _, _ = distance_table(rng, ("p", "q"))
    return "\n".join(
        ["vocab p q", "horizon 1", "prior lexicographic", *table_lines, "menu true"]
    ) + "\n"
