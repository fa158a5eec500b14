"""Self-tests of reference.py on hand-worked cases; nothing is timed.

    PYTHONPATH=src python3 perfbench/selftest.py

run.py runs this before every measurement and gives no result if it fails.
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import reference as ref

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "beliefchange" / "scenarios"


def directives(name: str):
    """(keyword, rest) per top-level line and ("", row) per indented row."""
    out = []
    for raw in (SCENARIOS / name).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            keyword, _, rest = line.strip().partition(" ")
            out.append(("", line.strip()) if line[0] in " \t" else (keyword, rest.strip()))
    return out


def test_km_borrowed_car():
    lines = directives("borrowed_car.scn")
    props = next(rest for k, rest in lines if k == "vocab").split()
    observed = [ref.parse_dnf(rest, props) for k, rest in lines if k == "observe"]
    worlds = ref.all_worlds(props)
    hamming = {(a, b): str(sum(x != y for x, y in zip(a, b))) for a in worlds for b in worlds if a != b}
    beliefs = ref.km_iterate(worlds, hamming, ref.strict_closure([("1", "2")]), observed)
    assert beliefs[3] == {"11"}, beliefs  # still parked with a full tank at t=3
    assert beliefs[4] == {"10"}, beliefs  # parked and empty at t=4


def test_diagnosis_three_gates():
    gates, tests = [], []
    for keyword, row in directives("diag_three_gates.scn"):
        parts = row.split() if keyword == "" else [keyword]
        if parts[0] == "gate":
            gates.append((parts[1], parts[2], (parts[3], parts[4]), parts[6]))
        elif parts[0] == "test":
            tests.append({k: v == "1" for k, v in (p.split("=") for p in parts[1:])})
    # healthy: t1 gives l6=0, t2 gives l6=1; reading l6=1 on t1 needs one fault
    readings = [
        {"l1": True, "l2": True, "l3": False, "l6": True},
        {"l1": False, "l2": True, "l3": True, "l6": True},
    ]
    single = {frozenset({"c1"}), frozenset({"c2"}), frozenset({"c3"})}
    assert ref.diagnoses(gates, tests, readings) == [{frozenset()}, single, single]
    assert ref.parse_diagnoses("{c1}; {c2}; {c3}") == single


def test_min_rank_ranked_basic():
    lines = directives("ranked_basic.scn")
    props = next(rest for k, rest in lines if k == "vocab").split()
    ranks = {w: int(r) for w, r in (row.split() for k, row in lines if k == "")}
    observed = [ref.parse_dnf(rest, props) for k, rest in lines if k == "observe"]
    beliefs = ref.ranked_beliefs(ranks, observed)
    assert beliefs == [{"11"}, {"11"}, {"10"}], beliefs

    from beliefchange import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["revise", "--scenario", str(SCENARIOS / "ranked_basic.scn")])
    assert code == 0
    printed = [ref.parse_dnf(line.split("Bel: ", 1)[1], props) for line in out.getvalue().splitlines()]
    assert printed == beliefs, printed


def main() -> int:
    tests = [test_km_borrowed_car, test_diagnosis_three_gates, test_min_rank_ranked_basic]
    for test in tests:
        test()
    print(f"selftest: {len(tests)} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
