import hashlib
import os
import subprocess
import sys
import time

import pytest

from beliefchange.cli import main
from beliefchange.scenario import (
    ScenarioError,
    build_system,
    load_scenario,
    load_scenario_text,
    scenario_to_text,
)
from beliefchange.systems import BudgetError, System, bel
from beliefchange.update import LexPrior, UpdateStructure, validate_upd

SCENARIOS = os.path.join(
    os.path.dirname(__file__), "..", "src", "beliefchange", "scenarios"
)
RANKED = os.path.join(SCENARIOS, "ranked_basic.scn")
CAR = os.path.join(SCENARIOS, "borrowed_car.scn")
DIAG = os.path.join(SCENARIOS, "diag_three_gates.scn")
SMALL_UPDATE = os.path.join(SCENARIOS, "small_update.scn")


# ---------------------------------------------------------------------------
# scenario parsing


def test_minimal_scenario_loads():
    s = load_scenario_text(
        "vocab p\nhorizon 1\nprior ranked\n  0 1\n  1 0\nmenu true, p\n"
    )
    assert s.prior_kind == "ranked"
    assert s.ranks == {0: 1, 1: 0}
    sys_ = build_system(s)
    assert bel(sys_, ()) == frozenset({1})


def test_lexicographic_without_distance_rejected():
    with pytest.raises(ScenarioError):
        load_scenario_text(
            "vocab p\nhorizon 1\nprior lexicographic\nmenu true\n"
        )


def test_distance_with_ranked_prior_rejected():
    with pytest.raises(ScenarioError):
        load_scenario_text(
            "vocab p\nhorizon 1\nprior ranked\n  0 0\n  1 0\n"
            "distance hamming\nmenu true\n"
        )


def test_unknown_atom_reports_line():
    with pytest.raises(ScenarioError) as err:
        load_scenario_text(
            "vocab p\nhorizon 1\nprior ranked\n  0 0\n  1 0\nmenu true\nobserve q\n"
        )
    assert "line 7" in str(err.value)


def test_belief_must_match_minimal_worlds():
    with pytest.raises(ScenarioError):
        load_scenario_text(
            "vocab p\nhorizon 1\nbelief !p\nprior ranked\n  0 1\n  1 0\nmenu true\n"
        )


def test_explicit_distance_table_loads():
    text = (
        "vocab p\nhorizon 1\nprior lexicographic\n"
        "distance table\n  0 1 a\n  1 0 b\n"
        "order a < b\n"
        "menu true, p\n"
    )
    s = load_scenario_text(text)
    structure = s.update_structure()
    assert structure.poset.less("a", "b")
    assert structure.d(0, 1) == "a"


TABLE_SCENARIO = (
    "vocab p\nhorizon 1\nprior lexicographic\n"
    "distance table\n  0 1 a\n  1 0 b\norder a < b\nmenu true, p\n"
)
PREFERENCE_SCENARIO = (
    "vocab p q\nhorizon 1\nprior preference\n  11 < 10\n  11 < 01\nmenu true, p, q\n"
)


def test_check_km_builds_a_table_structure_once(tmp_path, capsys, monkeypatch):
    # validation builds the structure to check the table; check-km reuses it
    path = tmp_path / "table.scn"
    path.write_text(TABLE_SCENARIO)
    built = []
    init = UpdateStructure.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(UpdateStructure, "__init__", counted)
    code, out, _ = run_cli(capsys, "check-km", "--scenario", str(path))
    assert code == 0 and "U8 PASS" in out
    assert len(built) == 1


def test_scenario_round_trips_through_printer():
    scenarios = [load_scenario(path) for path in (RANKED, CAR, DIAG)]
    scenarios += [load_scenario_text(TABLE_SCENARIO), load_scenario_text(PREFERENCE_SCENARIO)]
    texts = []
    for s in scenarios:
        text = scenario_to_text(s)
        again = load_scenario_text(text)
        assert scenario_to_text(again) == text
        texts.append(text)
    # the table's order line and the preference pairs are printed back
    assert "distance table\n  0 1 a\n  1 0 b\norder a < b\n" in texts[3]
    assert "prior preference\n  11 < 10\n  11 < 01\n" in texts[4]


def test_preference_scenario_builds_partial_prior():
    from beliefchange.plausibility import Ordering

    sys_ = build_system(load_scenario_text(PREFERENCE_SCENARIO))
    r10 = next(r for r in sys_.runs if r.envs[0] == 2)
    r01 = next(r for r in sys_.runs if r.envs[0] == 1)
    assert sys_.prior.compare([r10], [r01]) is Ordering.INCOMPARABLE
    # 11 dominates 10 and 01, but 00 is incomparable to everything, so the
    # undominated worlds are 11 and 00
    assert bel(sys_, ()) == frozenset({3, 0})


# ---------------------------------------------------------------------------
# command dispatch


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_agm_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check-agm", "--scenario", RANKED)
    assert code == 0
    for name in ("R1", "R4", "R8"):
        assert f"{name} PASS" in out


def test_trace_prints_canonical_beliefs(capsys):
    code, out, _ = run_cli(capsys, "trace", "--scenario", RANKED)
    assert code == 0
    assert out.splitlines() == [
        "t=0 Bel: p & q",
        "t=1 Bel: p & q",
        "t=2 Bel: p & !q",
    ]


def test_borrowed_car_report_ends_with_explanation(capsys):
    code, out, _ = run_cli(capsys, "borrowed-car")
    assert code == 0
    assert out.rstrip().splitlines()[-1].startswith("conclusion: the car stayed parked")
    assert "between times 3 and 4" in out


def test_machine_format_is_tab_separated(capsys):
    code, out, _ = run_cli(
        capsys, "check-rev", "--scenario", RANKED, "--format", "machine"
    )
    assert code == 0
    for line in out.rstrip("\n").splitlines():
        parts = line.split("\t")
        assert len(parts) == 4
        assert parts[0] == "rev"
        assert parts[2] in ("PASS", "FAIL")


def test_diagnose_rev_check_fails_as_expected(capsys):
    code, out, _ = run_cli(capsys, "check-rev", "--scenario", DIAG)
    assert code == 1
    assert "REV1 FAIL" in out
    assert "REV4 FAIL" in out
    assert "REV4' PASS" in out


REV2_NOTE = "# REV2 holds by construction: the prior's root is a ranked measure"


def test_rev2_on_a_ranked_prior_says_it_holds_by_construction(capsys):
    for scenario in (RANKED, DIAG):
        _, out, _ = run_cli(capsys, "check-rev", "--scenario", scenario)
        assert REV2_NOTE in out.splitlines()
    _, out, _ = run_cli(capsys, "check-rev", "--scenario", SMALL_UPDATE)
    assert "REV2 holds by construction" not in out


def test_rev4_says_when_the_budget_stopped_it(capsys):
    # 7 probes after 5 one-observation and 25 two-observation sequences:
    # parts of 245 and 1,225 probe pairs, each swept whole or a budget error
    code, out, err = run_cli(capsys, "check-rev", "--scenario", RANKED, "--budget", "100")
    assert code == 2 and out == ""
    assert "error: REV4: 245 probe pairs after 1-observation sequences exceed the budget of 100" in err
    code, _, err = run_cli(capsys, "check-rev", "--scenario", RANKED, "--budget", "1224")
    assert code == 2
    assert "error: REV4: 1225 probe pairs after 2-observation sequences exceed the budget of 1224" in err
    _, machine, _ = run_cli(capsys, "check-rev", "--scenario", RANKED, "--budget", "1225",
                            "--format", "machine")
    _, full, _ = run_cli(capsys, "check-rev", "--scenario", RANKED, "--format", "machine")
    assert machine == full
    for budget in ("1225", "100000"):
        _, out, _ = run_cli(capsys, "check-rev", "--scenario", RANKED, "--budget", budget)
        assert "stopped at the budget" not in out
    # 324 probe pairs after the two-observation sequences, which hold the
    # witnesses: a budget below that part stops before them
    code, _, err = run_cli(capsys, "check-rev", "--scenario", SMALL_UPDATE, "--budget", "300")
    assert code == 2
    assert "error: REV4: 324 probe pairs after 2-observation sequences exceed the budget of 300" in err
    code, out, _ = run_cli(capsys, "check-rev", "--scenario", SMALL_UPDATE, "--budget", "324")
    assert code == 1 and "REV4' FAIL" in out


def test_check_rev_on_a_circuit_takes_the_budget(capsys):
    # 24 probes after 7 one-observation sequences: one part of 4,032 pairs
    code, out, err = run_cli(capsys, "check-rev", "--scenario", DIAG, "--budget", "10")
    assert code == 2 and out == ""
    assert "error: REV4: 4032 probe pairs after 1-observation sequences exceed the budget of 10" in err
    _, out, _ = run_cli(capsys, "check-rev", "--scenario", DIAG, "--budget", "4032")
    assert "REV4 FAIL" in out and "stopped at the budget" not in out


def test_update_trace_on_car_scenario(capsys):
    code, out, _ = run_cli(capsys, "update", "--scenario", CAR)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "t=1 Bel: car_parked_outside & fuel_tank_full"
    assert lines[3] == "t=3 Bel: car_parked_outside & fuel_tank_full"
    assert lines[4] == "t=4 Bel: car_parked_outside & !fuel_tank_full"


def test_check_upd_on_small_update_scenario(capsys):
    # every observation's observed and merely-true events have one root
    # image here, so UPD4 sweeps nothing and its 2,187 instances with one
    # observation are no budget part; the largest part left is UPD2's 2,016
    # pairs of length-3 cells
    code, out, _ = run_cli(
        capsys, "check-upd", "--scenario", SMALL_UPDATE, "--budget", "2186"
    )
    assert code == 0
    assert out.splitlines()[:4] == ["UPD1 PASS", "UPD2 PASS", "UPD3 PASS", "UPD4 PASS"]
    code, _, err = run_cli(capsys, "check-upd", "--scenario", SMALL_UPDATE, "--budget", "2015")
    assert code == 2
    assert "error: UPD2: 2016 pairs of length-3 cells exceed the budget of 2015" in err
    # with the runs that observe p at 11 dropped, observing p is swept, and
    # its part counts every instance with one observation
    sys_ = build_system(load_scenario(SMALL_UPDATE))
    w11, p = sys_.vocab.world_from_str("11"), sys_.menu[1]
    runs = tuple(r for r in sys_.runs if not (r.envs[1] == w11 and r.obs[0] == p))
    no_p_at_11 = System(sys_.vocab, runs, LexPrior(runs, sys_.prior.structure), sys_.horizon, menu=sys_.menu)
    with pytest.raises(BudgetError, match="^UPD4: 2187 instances with one observation exceed the budget of 2186$"):
        validate_upd(no_p_at_11, budget=2186)


def test_check_upd_on_borrowed_car_in_both_formats(capsys):
    # the 26,244-run system: every run-set event is built from run masks
    started = time.time()
    code, out, _ = run_cli(capsys, "check-upd", "--scenario", CAR)
    assert code == 0
    assert out.splitlines()[:4] == ["UPD1 PASS", "UPD2 PASS", "UPD3 PASS", "UPD4 PASS"]
    code, out, _ = run_cli(capsys, "check-upd", "--scenario", CAR, "--format", "machine")
    assert code == 0
    assert out.splitlines() == [f"upd\tUPD{i}\tPASS\t" for i in range(1, 5)]
    elapsed = time.time() - started
    assert elapsed < 60, f"check-upd on borrowed_car took {elapsed:.1f}s in both formats"


def test_statify_reports_expected_profile(capsys):
    code, out, _ = run_cli(
        capsys, "statify", "--scenario", SMALL_UPDATE, "--budget", "2187"
    )
    assert code == 1  # rankedness genuinely fails on the partial prior
    assert "REV1 PASS" in out
    assert "UPD3->REV3 PASS" in out
    assert "UPD4->REV4' PASS" in out
    assert "REV2 FAIL" in out


def test_usage_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "check-agm")
    assert code == 2
    assert "requires --scenario" in err
    code, _, _ = run_cli(capsys, "update", "--scenario", RANKED)
    assert code == 2
    code, _, _ = run_cli(capsys, "check-agm", "--scenario", "/no/such/file.scn")
    assert code == 2


def test_reports_are_deterministic(capsys):
    first = run_cli(capsys, "check-rev", "--scenario", RANKED, "--format", "machine")
    second = run_cli(capsys, "check-rev", "--scenario", RANKED, "--format", "machine")
    assert first == second


def test_diagnose_trace(capsys):
    code, out, _ = run_cli(capsys, "diagnose", "--scenario", DIAG)
    assert code == 0
    assert out.splitlines()[0] == "t=0 diagnoses: {}"
    assert "FILTER PASS" in out


def test_witness_lines_are_machine_parseable(capsys):
    code, out, _ = run_cli(capsys, "check-rev", "--scenario", DIAG)
    assert code == 1
    for line in out.splitlines():
        if "FAIL" in line:
            assert "WITNESS: " in line


def test_check_km_and_relaxed_mode(capsys):
    code, out, _ = run_cli(capsys, "check-km", "--scenario", SMALL_UPDATE)
    assert code == 0
    assert "U8 PASS" in out
    # the relaxed mode only rewrote exit codes, and is gone
    code, _, err = run_cli(capsys, "check-km", "--scenario", SMALL_UPDATE, "--relaxed-transitions")
    assert code == 2 and "unrecognized arguments: --relaxed-transitions" in err


def test_check_bcs(capsys):
    for scn in (RANKED, SMALL_UPDATE, DIAG):
        code, out, _ = run_cli(capsys, "check-bcs", "--scenario", scn)
        assert code == 0
        assert "BCS5 PASS" in out


def test_revise_on_preference_scenario(tmp_path, capsys):
    path = tmp_path / "pref.scn"
    path.write_text(
        "vocab p q\nhorizon 1\nprior preference\n  11 < 10\n  11 < 01\n"
        "menu true, p, q\nobserve p\n"
    )
    code, out, _ = run_cli(capsys, "revise", "--scenario", str(path))
    assert code == 0
    assert out.splitlines()[0].startswith("t=0 Bel: ")


def test_horizon_override(tmp_path, capsys):
    path = tmp_path / "short.scn"
    path.write_text(
        "vocab p\nhorizon 1\nprior ranked\n  0 1\n  1 0\nmenu true, p\n"
    )
    code, out, _ = run_cli(capsys, "trace", "--scenario", str(path), "--horizon", "3")
    assert code == 0
    code, out, _ = run_cli(capsys, "trace", "--scenario", str(path), "--horizon", "0")
    assert code == 2


def test_total_preference_passes_rev2(tmp_path, capsys):
    # a total world order makes a total prior: runs from one world are
    # order-equivalent, not incomparable
    path = tmp_path / "total.scn"
    path.write_text(
        "vocab p q\nhorizon 1\nprior preference\n  11 < 10\n  10 < 01\n  01 < 00\n"
        "menu true, p, q\n"
    )
    code, out, _ = run_cli(capsys, "check-rev", "--scenario", str(path))
    assert code == 0, out
    assert "REV2 PASS" in out


def test_circuit_with_more_observations_than_tests_is_a_usage_error(tmp_path, capsys):
    # one test step allows one observation, as a ranked horizon does
    path = tmp_path / "extra.scn"
    path.write_text(
        "circuit\n  gate c1 AND a b -> c\n  test a=1 b=1\n"
        "observe h_a & h_b & h_c\nobserve h_a & h_b & h_c\n"
    )
    for command in ("diagnose", "revise"):
        code, out, err = run_cli(capsys, command, "--scenario", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: more observations than the horizon allows\n"
    path.write_text(
        "vocab p\nhorizon 1\nprior ranked\n  0 1\n  1 0\nmenu true, p\nobserve p\nobserve p\n"
    )
    code, _, err = run_cli(capsys, "revise", "--scenario", str(path))
    assert (code, err) == (2, "error: more observations than the horizon allows\n")


def test_preference_cycle_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "cycle.scn"
    path.write_text(
        "vocab p\nhorizon 1\nprior preference\n  1 < 0\n  0 < 1\nmenu true, p\n"
    )
    code, out, err = run_cli(capsys, "check-bcs", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: preference order contains a cycle\n"


def test_unknown_order_label_names_the_written_label(tmp_path):
    path = tmp_path / "label.scn"
    path.write_text(
        "vocab p\nhorizon 1\nprior lexicographic\ndistance table\n"
        "  0 1 a\n  1 0 a\norder a < b\nmenu true, p\n"
    )
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    errors = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "beliefchange.cli", "check-km", "--scenario", str(path)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        errors.append(proc.stderr)
    assert errors[0] == errors[1] == "error: line 7: order mentions unknown label 'b'\n"


def test_check_agm_on_a_circuit_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "check-agm", "--scenario", DIAG)
    assert code == 2
    assert out == ""
    assert err.startswith("error: check-agm")


@pytest.mark.parametrize("command", ["check-upd", "statify"])
def test_negative_budget_is_a_usage_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--scenario", SMALL_UPDATE, "--budget", "-1")
    assert code == 2
    assert out == ""
    assert "--budget: must not be negative: -1" in err


def test_main_builds_its_parser_once_and_parses_alike_after(capsys, monkeypatch):
    from beliefchange import cli

    cli._main_parser()  # built by an earlier call or now
    monkeypatch.setattr(cli, "make_parser", lambda: pytest.fail("parser built again"))
    runs = [
        run_cli(capsys, *argv)
        for argv in (("no-such-command",), ("check-upd", "--scenario", SMALL_UPDATE, "--budget", "-1"))
        for _ in range(2)
    ]
    assert runs[0] == runs[1] and runs[2] == runs[3]
    assert runs[0][0] == runs[2][0] == 2
    assert "invalid choice: 'no-such-command'" in runs[0][2]
    assert run_cli(capsys, "check-agm", "--scenario", RANKED)[0] == 0


# sha256 of the --format machine stdout and of the text stdout, with the
# exit code (the same in both formats), of every command on every bundled
# scenario: a change made only for speed or for a simpler design must leave
# every record and every report byte for byte as it was (exit 2 is a usage
# error, which prints nothing on stdout)
NO_OUTPUT = hashlib.sha256(b"").hexdigest()
GOLDEN = [
    ("revise", RANKED, 0, "ad6f84e683794efbb249f825012d0b20b88452f3c5d156f1966e704d0bcf7080",
     "ad6f84e683794efbb249f825012d0b20b88452f3c5d156f1966e704d0bcf7080"),
    ("revise", CAR, 2, NO_OUTPUT,
     NO_OUTPUT),
    ("revise", DIAG, 0, "2926d454f6853bc898096e60834961bb0f2ba9e2edf318b930cc466d29789720",
     "2926d454f6853bc898096e60834961bb0f2ba9e2edf318b930cc466d29789720"),
    ("revise", SMALL_UPDATE, 2, NO_OUTPUT,
     NO_OUTPUT),
    ("update", RANKED, 2, NO_OUTPUT,
     NO_OUTPUT),
    ("update", CAR, 0, "aa8fdbdca975b74117be2acbf88e2383b9738781dfc69d8fe986edac9ff1429a",
     "aa8fdbdca975b74117be2acbf88e2383b9738781dfc69d8fe986edac9ff1429a"),
    ("update", DIAG, 2, NO_OUTPUT,
     NO_OUTPUT),
    ("update", SMALL_UPDATE, 0, "6616b526091b1ca06ecd465ec32c75c5e28015addc3d3b4f7a2aa3761caab32a",
     "6616b526091b1ca06ecd465ec32c75c5e28015addc3d3b4f7a2aa3761caab32a"),
    ("check-agm", RANKED, 0, "6952ba7a4d56be366addd2971bb80edfd667b64f1925bf2eabdcda8f5e59eacb",
     "3b0aba8bd0dce6f18960f66ea2d4f0a2ffbf2014c9b948391066b9971d27ec0d"),
    ("check-agm", CAR, 2, NO_OUTPUT,
     NO_OUTPUT),
    ("check-agm", DIAG, 2, NO_OUTPUT,
     NO_OUTPUT),
    ("check-agm", SMALL_UPDATE, 2, NO_OUTPUT,
     NO_OUTPUT),
    ("check-km", RANKED, 2, NO_OUTPUT,
     NO_OUTPUT),
    ("check-km", CAR, 0, "69b40dd085c876237cb1696f92f8eddc83e94d9b1e7c11d3cc3ed877e7b60619",
     "d4380e8a83993ada295ba1fbb3f7ba4ab79a1d5d26db276e985e135f4aab7c7e"),
    ("check-km", DIAG, 2, NO_OUTPUT,
     NO_OUTPUT),
    ("check-km", SMALL_UPDATE, 0, "69b40dd085c876237cb1696f92f8eddc83e94d9b1e7c11d3cc3ed877e7b60619",
     "d4380e8a83993ada295ba1fbb3f7ba4ab79a1d5d26db276e985e135f4aab7c7e"),
    ("check-rev", RANKED, 0, "81fb09baabd7550414074c23c175c795d5ab35560a554068dec06254ebcb21e0",
     "a53075948079b8cc0bffade1c9de3b4c7a52c17f24847e88cee3c6eaa16d7fe9"),
    ("check-rev", CAR, 1, "6a31d70b0450a1cf5651f2d0ba0ceb736fdd3918333774e49cf32d51baeef1f5",
     "0c8c3f1a3991a0061bcedf2424e6615e5e5eaed9b0843f8ecd6365167bf6a5ed"),
    ("check-rev", DIAG, 1, "e14704a4ac5949db6ac3ee6e3fcd1830cc6ea1403bab5274cbf9b5bbe0857c05",
     "17b58e340175d6e6d15bd32abc054b70e179f7befb7c9a834f8d4a891e6467b8"),
    ("check-rev", SMALL_UPDATE, 1, "9df5277ac05227de3ae91b5a6677330d091eedf503e3d98f412c4152bdcfc44d",
     "eda703864ac127573a8a4c0e925da6264cd8386b9df0cbe72287ec71f826d5a3"),
    ("check-upd", RANKED, 2, NO_OUTPUT,
     NO_OUTPUT),
    ("check-upd", CAR, 0, "01a5b879bb446b38bda14447fc9b29bcf3b8489536f33af56b7d2d2e25ed6b72",
     "91d7c7b94b106c62b31a302eab3056336ee2233ea79b47e45584bfa70b13ca2c"),
    ("check-upd", DIAG, 2, NO_OUTPUT,
     NO_OUTPUT),
    ("check-upd", SMALL_UPDATE, 0, "01a5b879bb446b38bda14447fc9b29bcf3b8489536f33af56b7d2d2e25ed6b72",
     "91d7c7b94b106c62b31a302eab3056336ee2233ea79b47e45584bfa70b13ca2c"),
    ("check-bcs", RANKED, 0, "3bade81146d5aa19b306f95381a7d3c9ab73224f91727e58506d6fc9b60822f4",
     "a831df0402bbb3ed5b9408fa45527d80a3fbaf6715221f1a0a593f0b6dfe6370"),
    ("check-bcs", CAR, 0, "3bade81146d5aa19b306f95381a7d3c9ab73224f91727e58506d6fc9b60822f4",
     "c7d0f456c68cc65e0ff8a54acff4bace591a30f860998aabdde02c26bfb8b081"),
    ("check-bcs", DIAG, 0, "3bade81146d5aa19b306f95381a7d3c9ab73224f91727e58506d6fc9b60822f4",
     "a831df0402bbb3ed5b9408fa45527d80a3fbaf6715221f1a0a593f0b6dfe6370"),
    ("check-bcs", SMALL_UPDATE, 0, "3bade81146d5aa19b306f95381a7d3c9ab73224f91727e58506d6fc9b60822f4",
     "c7d0f456c68cc65e0ff8a54acff4bace591a30f860998aabdde02c26bfb8b081"),
    ("statify", RANKED, 1, "b6a80de5ceffd149c81b9a2d9f27e23bee44109a0bcc0e03716cc329071a0a66",
     "f1efc1810c010e3645649af2b778dc9f7fa502fd37fc83243ff9fa92d6f6ba71"),
    ("statify", CAR, 1, "1867e99172f75818cca8e5ca2ebc0c9d06e4bfd84a234e39488555a2ec398de2",
     "e3686cf39b4abd584266dc1bd67cfa688feb892d3a33fcb0e8cf8ddb72a54621"),
    ("statify", DIAG, 2, NO_OUTPUT,
     NO_OUTPUT),
    ("statify", SMALL_UPDATE, 1, "c57f854cad0c1a7489dd162995082703699d5665744806412716d8da76626ea9",
     "a5367e2ae8dabc8dc81c175ad70a6b4966ec1b9f427f5bcdaaa7f6ef4a4da61b"),
    ("diagnose", RANKED, 2, NO_OUTPUT,
     NO_OUTPUT),
    ("diagnose", CAR, 2, NO_OUTPUT,
     NO_OUTPUT),
    ("diagnose", DIAG, 0, "6a4c6ed1f445df36590492aa5794011de5828975fd03c3eef852542ffd00a8a6",
     "cdca480f2a5d1db6cdd1720febea5d86696242d62f70b0bc3fc2bcd45e5ec08e"),
    ("diagnose", SMALL_UPDATE, 2, NO_OUTPUT,
     NO_OUTPUT),
    ("borrowed-car", RANKED, 0, "7d81039d1c9002da48d4c195ed5485d1d00c11d5eafd12754e10f8c0104ffa88",
     "7d81039d1c9002da48d4c195ed5485d1d00c11d5eafd12754e10f8c0104ffa88"),
    ("borrowed-car", CAR, 0, "7d81039d1c9002da48d4c195ed5485d1d00c11d5eafd12754e10f8c0104ffa88",
     "7d81039d1c9002da48d4c195ed5485d1d00c11d5eafd12754e10f8c0104ffa88"),
    ("borrowed-car", DIAG, 0, "7d81039d1c9002da48d4c195ed5485d1d00c11d5eafd12754e10f8c0104ffa88",
     "7d81039d1c9002da48d4c195ed5485d1d00c11d5eafd12754e10f8c0104ffa88"),
    ("borrowed-car", SMALL_UPDATE, 0, "7d81039d1c9002da48d4c195ed5485d1d00c11d5eafd12754e10f8c0104ffa88",
     "7d81039d1c9002da48d4c195ed5485d1d00c11d5eafd12754e10f8c0104ffa88"),
    ("trace", RANKED, 0, "ad6f84e683794efbb249f825012d0b20b88452f3c5d156f1966e704d0bcf7080",
     "ad6f84e683794efbb249f825012d0b20b88452f3c5d156f1966e704d0bcf7080"),
    ("trace", CAR, 0, "aa8fdbdca975b74117be2acbf88e2383b9738781dfc69d8fe986edac9ff1429a",
     "aa8fdbdca975b74117be2acbf88e2383b9738781dfc69d8fe986edac9ff1429a"),
    ("trace", DIAG, 0, "2926d454f6853bc898096e60834961bb0f2ba9e2edf318b930cc466d29789720",
     "2926d454f6853bc898096e60834961bb0f2ba9e2edf318b930cc466d29789720"),
    ("trace", SMALL_UPDATE, 0, "6616b526091b1ca06ecd465ec32c75c5e28015addc3d3b4f7a2aa3761caab32a",
     "6616b526091b1ca06ecd465ec32c75c5e28015addc3d3b4f7a2aa3761caab32a"),
]


@pytest.mark.parametrize(
    "command,scenario,exit_code,digest,text_digest",
    GOLDEN,
    ids=[f"{c}-{os.path.basename(s)}" for c, s, _, _, _ in GOLDEN],
)
def test_machine_output_is_golden(capsys, command, scenario, exit_code, digest, text_digest):
    for fmt, expected in (("machine", digest), ("text", text_digest)):
        code, out, _ = run_cli(capsys, command, "--scenario", scenario, "--format", fmt)
        assert code == exit_code, fmt
        assert hashlib.sha256(out.encode()).hexdigest() == expected, fmt


def test_a_test_vector_naming_an_unknown_line_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "typo.scn"
    with open(DIAG) as f:
        path.write_text(f.read().replace("test l1=1 l2=1 l3=0", "test l1=1 l2=1 l3=0 typo=1"))
    for command in ("diagnose", "check-rev"):
        code, out, err = run_cli(capsys, command, "--scenario", str(path))
        assert code == 2
        assert err == "error: test sets non-input line 'typo'\n"
