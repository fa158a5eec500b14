"""One benchmark workload in one process.

Started by run.py with a fixed PYTHONHASHSEED and ``PYTHONPATH=src``.  It
imports the package, generates the first instance's scenario files (the
end of set-up), then takes fresh seeded instances through the command
line in-process until the run's seconds are used, checking every output
against reference.py.  Its last stdout line is a JSON summary for run.py.

Every command is timed with refclock.ReferenceClock, which pairs it with
a reference loop timed right before and while it runs, so figures stay
in seconds while a machine that slows both by the same factor leaves
them unchanged.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

import generate
import reference as ref
from refclock import ReferenceClock

KM_TABLES = 8  # check-km runs per postulates instance: same order of time as check-agm


class Instance:
    """Times and verdicts of one instance's operations."""

    def __init__(self, clock, tracer, layers):
        self.clock = clock
        self.tracer = tracer
        self.layers = layers
        self.raw_s = 0.0
        self.adjusted_s = 0.0
        self.attempted = 0
        self.errors = []  # operations that raised
        self.wrong = []  # operations that completed with a wrong answer

    def timed(self, fn):
        gc.collect()
        if self.tracer is not None:
            self.tracer.drain()
        result, wall, adjusted = self.clock.time(fn)
        self.raw_s += wall
        self.adjusted_s += adjusted
        if self.tracer is not None:
            # spans include the clock's samples; scale them to add up to `adjusted`
            counts, self_s = self.tracer.drain()
            scale = adjusted / sum(self_s.values()) if self_s else 0.0
            self.layers.update(counts)
            self.layers.update({k: v * scale for k, v in self_s.items()})
        return result

    def operation(self, label, fn, check):
        """Run one operation; an exception fails it, and so does a wrong
        answer, which also makes the run incorrect."""
        self.attempted += 1
        try:
            result = self.timed(fn)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            self.errors.append(f"{label}: raised {exc!r}")
            return
        problems = check(result)
        if problems:
            self.wrong.append(f"{label}: {problems}")

    def command(self, command, path, expect_code, check):
        cli = sys.modules["beliefchange.cli"]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, "--scenario", str(path), "--format", "machine"])
            return code, out.getvalue(), err.getvalue()

        def verify(result):
            code, out, err = result
            if code != expect_code:
                return f"exit {code}, expected {expect_code}: {err.strip()[:200]}"
            return check(out)

        self.operation(f"{command} {Path(path).name}", call, verify)


# ---------------------------------------------------------------------------
# checks on command output


def verdicts(out: str) -> dict:
    records = [line.split("\t") for line in out.splitlines() if "\t" in line]
    return {r[1]: r[2] for r in records}


def expect_verdicts(passing, failing=()):
    def check(out):
        seen = verdicts(out)
        wrong = [n for n in passing if seen.get(n) != "PASS"]
        wrong += [n for n in failing if seen.get(n) != "FAIL"]
        return f"verdicts {[(n, seen.get(n)) for n in wrong]}" if wrong else ""
    return check


def all_pass(names):
    """Every named check present and every reported check passing."""
    def check(out):
        seen = verdicts(out)
        if sorted(seen) != sorted(names) or set(seen.values()) != {"PASS"}:
            return f"verdicts {seen}"
        return ""
    return check


def trace_lines(out: str, key: str):
    return [line.split(f" {key}: ", 1) for line in out.splitlines() if f" {key}: " in line]


def expect_beliefs(props, expected):
    def check(out):
        got = [(t, ref.parse_dnf(text, props)) for t, text in trace_lines(out, "Bel")]
        want = [(f"t={m}", worlds) for m, worlds in enumerate(expected)]
        return "" if got == want else f"beliefs {got} != {want}"
    return check


def expect_diagnoses(expected):
    def check(out):
        got = [(t, ref.parse_diagnoses(text)) for t, text in trace_lines(out, "diagnoses")]
        want = [(f"t={m}", sets) for m, sets in enumerate(expected)]
        if got != want:
            return f"diagnoses {got} != {want}"
        return expect_verdicts(["FILTER", "SURPRISE", "DISJOINT", "CARDINALITY", "PERSISTENCE"])(out)
    return check


BCS = ["BCS1", "BCS2", "BCS3", "BCS4", "BCS5"]


# ---------------------------------------------------------------------------
# workloads: prepare(rng, directory) writes one instance's files (outside
# any timing); run(instance, prepared) takes it through its commands.


def write(directory: Path, name: str, text: str) -> Path:
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return path


def prepare_update_runs(rng, directory):
    text, facts = generate.update_scenario(rng)
    return write(directory, "update.scn", text), facts


def run_update_runs(inst, prepared):
    path, facts = prepared
    worlds = ref.all_worlds(facts["props"])
    beliefs = ref.km_iterate(
        worlds, facts["table"], ref.strict_closure(facts["order"]), facts["observations"]
    )
    inst.command("update", path, 0, expect_beliefs(facts["props"], beliefs))
    inst.command("check-upd", path, 0, all_pass(["UPD1", "UPD2", "UPD3", "UPD4"]))
    inst.command("check-bcs", path, 0, all_pass(BCS))
    # runs from different initial worlds are incomparable, so REV2 must fail
    inst.command("statify", path, 1, expect_verdicts(
        ["BCS", "REV1", "UPD3->REV3", "UPD4->REV4'", "PRIOR-ISO"], ["REV2"]))


def prepare_ranked_runs(rng, directory):
    ranked_text, ranked = generate.ranked_scenario(rng)
    circuit_text, circuit = generate.circuit_scenario(rng)
    return (write(directory, "ranked.scn", ranked_text), ranked,
            write(directory, "circuit.scn", circuit_text), circuit)


def run_ranked_runs(inst, prepared):
    ranked_path, ranked, circuit_path, circuit = prepared
    beliefs = ref.ranked_beliefs(ranked["ranks"], ranked["observations"])
    inst.command("revise", ranked_path, 0, expect_beliefs(ranked["props"], beliefs))
    inst.command("check-rev", ranked_path, 0, all_pass(["REV1", "REV2", "REV3", "REV4", "REV4'"]))
    inst.command("check-bcs", ranked_path, 0, all_pass(BCS))
    expected = ref.diagnoses(circuit["gates"], circuit["tests"], circuit["readings"])
    inst.command("diagnose", circuit_path, 0, expect_diagnoses(expected))
    inst.command("check-bcs", circuit_path, 0, all_pass(BCS))


def prepare_postulates(rng, directory):
    agm = write(directory, "agm.scn", generate.agm_scenario(rng))
    kms = [write(directory, f"km{k}.scn", generate.km_scenario(rng)) for k in range(KM_TABLES)]
    return agm, kms


def run_postulates(inst, prepared):
    agm, kms = prepared
    inst.command("check-agm", agm, 0, all_pass([f"R{i}" for i in range(1, 9)]))
    for path in kms:
        inst.command("check-km", path, 0, all_pass([f"U{i}" for i in range(1, 9)]))
    # negative controls: operators that break one postulate each, called
    # through the library because no scenario file can express them
    formulas = sys.modules["beliefchange.formulas"]
    update = sys.modules["beliefchange.update"]
    revision = sys.modules["beliefchange.revision"]
    vocab = formulas.Vocabulary(["p", "q"])
    worlds = list(vocab.worlds())

    def echo(mu, phi):
        return phi

    def global_hamming(mu, phi):
        if not mu or not phi:
            return frozenset()
        dist = {w: min(bin(w ^ o).count("1") for o in mu) for w in phi}
        best = min(dist.values())
        return frozenset(w for w in phi if dist[w] == best)

    def fails(name):
        return lambda report: "" if not report[name].passed else f"{name} passed"

    inst.operation("control echo-update",
                   lambda: update.check_km(echo, worlds, vocab), fails("U2"))
    inst.operation("control global-hamming",
                   lambda: update.check_km(global_hamming, worlds, vocab), fails("U8"))
    unchanged = revision.RevisionOperator(lambda belief, observed: belief, vocab)
    belief = vocab.extension(formulas.parse_formula("p", vocab))
    inst.operation("control unchanged-revision",
                   lambda: revision.check_agm(unchanged, belief), fails("R4"))


WORKLOADS = {
    "update-runs": (prepare_update_runs, run_update_runs),
    "ranked-runs": (prepare_ranked_runs, run_ranked_runs),
    "postulates": (prepare_postulates, run_postulates),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # the clock's probe table is the benchmark's own: kept out of set-up and memory
    start = perf_counter()
    rss_before_clock = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    clock = ReferenceClock()
    clock_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before_clock
    clock_s = perf_counter() - start

    start = perf_counter()
    importlib.import_module("beliefchange.cli")
    import_s = perf_counter() - start
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    prepare, run = WORKLOADS[args.workload]
    directory = Path(args.out_dir) / args.workload
    directory.mkdir(parents=True, exist_ok=True)

    def instance_rng(i):
        return random.Random(f"{args.workload}:{args.seed}:{i}")

    prepared = prepare(instance_rng(0), directory)
    setup_raw_s = time.monotonic() - args.spawned_at - clock_s
    scale = statistics.median(clock.scale() for _ in range(3))
    summary = {
        "setup_raw_s": setup_raw_s,
        "setup_s": setup_raw_s * scale,
        "import_raw_s": import_s,
        "import_s": import_s * scale,
    }
    if args.setup_only:
        print(json.dumps(summary))
        return 0

    layers = Counter()
    instances = []
    attempted = 0
    errors, wrong = [], []
    deadline = perf_counter() + args.seconds
    i = 0
    while True:
        inst = Instance(clock, tracer, layers)
        run(inst, prepared)
        instances.append((inst.adjusted_s, inst.raw_s))
        attempted += inst.attempted
        errors += inst.errors
        wrong += inst.wrong
        i += 1
        if perf_counter() >= deadline:
            break
        prepared = prepare(instance_rng(i), directory)

    summary.update(
        instances=instances,
        attempted=attempted,
        failed=len(errors) + len(wrong),
        errors=errors[:20],
        wrong=wrong[:20],
        peak_rss_mb=(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - clock_rss) / 1024,
        layers=layers,
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
