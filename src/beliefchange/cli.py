"""Command-line front end: batch checks and traces over scenario files.

Exit codes: 0 when every reported check passes, 1 when any check fails,
2 on usage, scenario or any other package error.  Reports are
deterministic for a fixed scenario and flag set; the machine format emits
one tab-separated record per line: CHECK, NAME, PASS|FAIL, WITNESS.
"""
from __future__ import annotations

import argparse
import sys as _sys
from typing import List, Optional

from .diagnosis import check_prop_diag, diag, revision_report
from .formulas import BeliefChangeError, formula_of_extension, print_formula
from .reports import Report
from .revision import check_agm, min_rank_worlds, operator_from_ranking, validate_rev
from .scenario import Scenario, build_system, load_scenario
from .synthesis import statify, verify_statification
from .systems import bel, validate_bcs
from .update import borrowed_car, check_km, update_operator, validate_upd

COMMANDS = (
    "revise",
    "update",
    "check-agm",
    "check-km",
    "check-rev",
    "check-upd",
    "check-bcs",
    "statify",
    "diagnose",
    "borrowed-car",
    "trace",
)


class UsageError(BeliefChangeError):
    pass


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefchange",
        description="belief revision and update over plausibility-ordered runs",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", help="scenario file (required for most commands)")
    parser.add_argument("--horizon", type=int, default=None, help="override the horizon")
    parser.add_argument("--budget", type=int, default=100_000, help="enumeration cap for checkers")
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.budget < 0:
            parser.error(f"argument --budget: must not be negative: {args.budget}")
    except SystemExit as exc:
        return 2 if exc.code else 0
    out: List[str] = []
    try:
        code = _dispatch(args, out)
    except (BeliefChangeError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    print("\n".join(out))
    return code


def _load(args) -> Scenario:
    if not args.scenario:
        raise UsageError("this command requires --scenario PATH")
    scenario = load_scenario(args.scenario)
    if args.horizon is not None:
        if args.horizon < len(scenario.observations) or args.horizon < 1:
            raise UsageError("horizon override too small for the observation sequence")
        if scenario.circuit is not None:
            raise UsageError("circuit horizons are fixed by their test count")
        scenario.horizon = args.horizon
    return scenario


def _emit(report: Report, args, out: List[str]) -> int:
    out.append(report.to_machine() if args.format == "machine" else report.to_text())
    return 0 if report.all_passed else 1


def _belief_line(sys_, time: int, worlds) -> str:
    formula = formula_of_extension(worlds, sys_.vocab)
    return f"t={time} Bel: {print_formula(formula)}"


def _trace_lines(scenario: Scenario, out: List[str]) -> None:
    sys_ = build_system(scenario)
    for m in range(len(scenario.observations) + 1):
        prefix = tuple(scenario.observations[:m])
        if m > 0 and scenario.observations[m - 1] not in sys_.menu:
            raise UsageError(
                f"observation {print_formula(scenario.observations[m - 1])} is not in the menu"
            )
        out.append(_belief_line(sys_, m, bel(sys_, prefix)))


def _dispatch(args, out: List[str]) -> int:
    cmd = args.command

    if cmd == "borrowed-car":
        sys_, trace = borrowed_car()
        vocab = sys_.vocab
        for step in trace["steps"]:
            observed = "-" if step["observed"] is None else print_formula(step["observed"])
            formula = formula_of_extension(step["states"], vocab)
            out.append(f"t={step['time']} observed={observed} Bel: {print_formula(formula)}")
        cells = trace["final_cells"]
        out.append(
            "most plausible histories: "
            + "; ".join(
                "->".join(vocab.world_str(w) for w in cell) for cell in cells
            )
        )
        out.append(
            "conclusion: the car stayed parked with a full tank until time 3; "
            "the fuel disappeared, for no modelled reason, between times 3 and 4"
        )
        return 0

    scenario = _load(args)

    if cmd == "trace":
        _trace_lines(scenario, out)
        return 0

    if cmd == "revise":
        if scenario.prior_kind not in ("ranked", "preference"):
            raise UsageError("revise needs a ranked or preference prior")
        _trace_lines(scenario, out)
        return 0

    if cmd == "update":
        if scenario.prior_kind != "lexicographic":
            raise UsageError("update needs a lexicographic prior with a distance block")
        _trace_lines(scenario, out)
        return 0

    if cmd == "check-agm":
        if scenario.prior_kind != "ranked":
            raise UsageError("check-agm needs a ranked prior")
        if scenario.circuit is not None:
            raise UsageError("check-agm needs a world ranking; a circuit scenario has none")
        op = operator_from_ranking(scenario.ranks, scenario.vocab)
        belief = min_rank_worlds(scenario.ranks, scenario.ranks)
        return _emit(check_agm(op, belief), args, out)

    if cmd == "check-km":
        if scenario.prior_kind != "lexicographic":
            raise UsageError("check-km needs a lexicographic prior with a distance block")
        structure = scenario.update_structure()
        report = check_km(update_operator(structure), structure.worlds, scenario.vocab)
        return _emit(report, args, out)

    if cmd == "check-rev":
        sys_ = build_system(scenario)
        if scenario.circuit is not None:
            return _emit(revision_report(sys_, scenario.circuit, args.budget), args, out)
        return _emit(validate_rev(sys_, budget=args.budget), args, out)

    if cmd == "check-upd":
        if scenario.prior_kind != "lexicographic":
            raise UsageError("check-upd needs a lexicographic prior with a distance block")
        return _emit(validate_upd(build_system(scenario), budget=args.budget), args, out)

    if cmd == "check-bcs":
        sys_ = build_system(scenario)
        return _emit(validate_bcs(sys_, budget=args.budget), args, out)

    if cmd == "statify":
        sys_ = build_system(scenario)
        st = statify(sys_)
        out.append("# statified system")
        out.append("# vocab " + " ".join(st.inner.vocab.props))
        out.append(f"# horizon {st.inner.horizon}")
        out.append(f"# runs {len(st.inner.runs)}")
        out.append(
            "# menu " + ", ".join(print_formula(f) for f in st.inner.menu)
        )
        return _emit(verify_statification(st, budget=args.budget), args, out)

    if cmd == "diagnose":
        if scenario.circuit is None:
            raise UsageError("diagnose needs a circuit scenario")
        sys_ = build_system(scenario)
        circuit = scenario.circuit
        readings = _match_observations(sys_, scenario)
        for m in range(len(readings) + 1):
            prefix = tuple(readings[:m])
            sets = sorted(
                sorted(fault) for fault in diag(sys_, circuit, prefix)
            )
            shown = "; ".join("{" + ",".join(f) + "}" for f in sets) or "none"
            out.append(f"t={m} diagnoses: {shown}")
        report = check_prop_diag(sys_, circuit)
        return _emit(report, args, out)

    raise UsageError(f"unknown command {cmd!r}")


def _match_observations(sys_, scenario: Scenario):
    """Canonicalise user observations to the menu readings they denote."""
    readings = []
    by_ext = {}
    for o in sys_.menu:
        by_ext.setdefault(sys_.vocab.extension(o) & sys_.universe, o)
    for o in scenario.observations:
        ext = sys_.vocab.extension(o) & sys_.universe
        match = by_ext.get(ext)
        if match is None:
            raise UsageError(
                f"observation {print_formula(o)} is not a possible reading"
            )
        readings.append(match)
    return readings


if __name__ == "__main__":
    raise SystemExit(main())
