"""Reference computations the benchmark checks the program against.

Nothing here imports ``beliefchange``: worlds are bit strings in
vocabulary order (``"10"`` over ``p q`` is p true, q false), formulas are
the printed DNF the command line emits, and every answer is computed from
the definitions in the paper rather than from the package's own code.
"""
from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

World = str


def all_worlds(props: Sequence[str]) -> List[World]:
    return ["".join(bits) for bits in itertools.product("01", repeat=len(props))]


def parse_dnf(text: str, props: Sequence[str]) -> FrozenSet[World]:
    """Worlds satisfying a disjunction of conjunctions of literals, or the
    constants ``true`` / ``false``; anything else is rejected."""
    text = text.strip()
    worlds = all_worlds(props)
    if text == "true":
        return frozenset(worlds)
    if text == "false":
        return frozenset()
    index = {name: i for i, name in enumerate(props)}
    out: Set[World] = set()
    for disjunct in text.split(" | "):
        wanted: Dict[int, str] = {}
        for literal in disjunct.split(" & "):
            name, bit = (literal[1:], "0") if literal.startswith("!") else (literal, "1")
            if name not in index or wanted.get(index[name], bit) != bit:
                raise ValueError(f"not a literal conjunction: {disjunct!r}")
            wanted[index[name]] = bit
        out.update(w for w in worlds if all(w[i] == b for i, b in wanted.items()))
    return frozenset(out)


# ---------------------------------------------------------------------------
# KM update: pointwise minimal change over a partially ordered distance


def strict_closure(pairs: Iterable[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    """Transitive closure of a strict order; a cycle is an error."""
    closed = set(pairs)
    while True:
        extra = {(a, d) for a, b in closed for c, d in closed if b == c} - closed
        if not extra:
            break
        closed |= extra
    if any(a == b for a, b in closed):
        raise ValueError("distance order has a cycle")
    return closed


def km_iterate(
    worlds: Sequence[World],
    distance: Mapping[Tuple[World, World], str],
    less: Set[Tuple[str, str]],
    observations: Sequence[FrozenSet[World]],
) -> List[FrozenSet[World]]:
    """Beliefs at t = 0..m: start from every world, then keep, for each
    believed origin, the observed worlds no observed world is strictly
    closer to.  The diagonal is distance ``0``, below every other label."""

    def d(a: World, b: World) -> str:
        return "0" if a == b else distance[(a, b)]

    def closer(origin: World, a: World, b: World) -> bool:
        da, db = d(origin, a), d(origin, b)
        return da != db and (da == "0" or (da, db) in less)

    beliefs = [frozenset(worlds)]
    for observed in observations:
        prev = beliefs[-1]
        beliefs.append(frozenset(
            w for w in observed
            if any(not any(closer(o, v, w) for v in observed) for o in prev)
        ))
    return beliefs


# ---------------------------------------------------------------------------
# Ranked revision


def min_rank(ranks: Mapping[World, int], candidates: Iterable[World]) -> FrozenSet[World]:
    candidates = list(candidates)
    if not candidates:
        return frozenset()
    best = min(ranks[w] for w in candidates)
    return frozenset(w for w in candidates if ranks[w] == best)


def ranked_beliefs(
    ranks: Mapping[World, int], observations: Sequence[FrozenSet[World]]
) -> List[FrozenSet[World]]:
    """Lowest-ranked worlds satisfying every observation so far (a static
    world under a ranking is what AGM revision conditions on)."""
    alive = set(ranks)
    out = [min_rank(ranks, alive)]
    for observed in observations:
        alive &= observed
        out.append(min_rank(ranks, alive))
    return out


# ---------------------------------------------------------------------------
# Circuit diagnosis by brute force

Gate = Tuple[str, str, Tuple[str, str], str]  # (id, kind, inputs, output)


def gate_value(kind: str, a: bool, b: bool) -> bool:
    if kind == "AND":
        return a and b
    if kind == "OR":
        return a or b
    if kind == "XOR":
        return a != b
    raise ValueError(f"unknown gate kind {kind!r}")


def line_assignments(
    gates: Sequence[Gate], test: Mapping[str, bool], faults: FrozenSet[str]
) -> List[Dict[str, bool]]:
    """Every line valuation under a test vector: healthy gates compute,
    faulty gates drive either value.  Gates are in topological order."""
    out = [dict(test)]
    for gid, kind, (a, b), line in gates:
        grown = []
        for values in out:
            choices = (False, True) if gid in faults else (gate_value(kind, values[a], values[b]),)
            grown.extend({**values, line: v} for v in choices)
        out = grown
    return out


def diagnoses(
    gates: Sequence[Gate],
    tests: Sequence[Mapping[str, bool]],
    readings: Sequence[Mapping[str, bool]],
) -> List[Set[FrozenSet[str]]]:
    """Minimum-cardinality fault sets consistent with the readings so far,
    for t = 0..len(readings), over all 2^|gates| fault sets."""
    ids = [g[0] for g in gates]
    fault_sets = [
        frozenset(itertools.compress(ids, mask))
        for mask in itertools.product((0, 1), repeat=len(ids))
    ]
    out = []
    for m in range(len(readings) + 1):
        consistent = [
            f for f in fault_sets
            if all(
                any(all(v[k] == want for k, want in readings[t].items())
                    for v in line_assignments(gates, tests[t], f))
                for t in range(m)
            )
        ]
        best = min(len(f) for f in consistent)
        out.append({f for f in consistent if len(f) == best})
    return out


def simulate_reading(
    gates: Sequence[Gate], test: Mapping[str, bool], faults: FrozenSet[str],
    observed: Sequence[str], rng,
) -> Dict[str, bool]:
    """The observed lines of one valuation; faulty gates drive a random value."""
    values = dict(test)
    for gid, kind, (a, b), line in gates:
        values[line] = rng.random() < 0.5 if gid in faults else gate_value(kind, values[a], values[b])
    return {line: values[line] for line in observed}


def parse_diagnoses(text: str) -> Set[FrozenSet[str]]:
    """Fault sets from a ``diagnoses:`` line: ``{c1}; {c2,c3}``, ``{}`` or ``none``."""
    text = text.strip()
    if text == "none":
        return set()
    out = set()
    for part in text.split("; "):
        if not (part.startswith("{") and part.endswith("}")):
            raise ValueError(f"not a fault set: {part!r}")
        inner = part[1:-1]
        out.add(frozenset(inner.split(",")) if inner else frozenset())
    return out
