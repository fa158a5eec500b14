"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  The
command runs the self-tests, then the workload in its own process
(workload.py, single-threaded, PYTHONHASHSEED fixed).  With ``--trace 0``
it also starts set-up-only processes and prints the end-to-end metrics;
with ``--trace 1`` the workload runs with tracer.py's wrappers and the
per-layer metrics are printed instead.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_names
from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
HASH_SEED = "0"
SETUP_PROBES = 4  # set-up-only processes; with the workload's own, five samples


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED,
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(argv, timeout: float) -> str:
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} ran past {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def run_workload(args, extra, timeout: float) -> dict:
    spawned_at = time.monotonic()
    out = run_child([str(HERE / "workload.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--spawned-at", repr(spawned_at),
                     "--out-dir", str(OUT), *extra], timeout)
    return json.loads(out.strip().splitlines()[-1])


def measure(args) -> dict:
    if not (SRC / "beliefchange" / "cli.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    print(run_child([str(HERE / "selftest.py")], 120).strip())
    probes = [] if args.trace else [
        run_workload(args, ["--setup-only"], 60) for _ in range(SETUP_PROBES)
    ]
    main = run_workload(args, [], args.seconds + 100)
    n = len(main["instances"])
    adjusted = [a for a, _ in main["instances"]]
    raw = [r for _, r in main["instances"]]
    print(f"{args.workload}: {n} instances, adjusted p50 {statistics.median(adjusted) * 1e3:.1f} ms, "
          f"raw p50 {statistics.median(raw) * 1e3:.1f} ms, "
          f"raw instances/s {n / sum(raw):.4f}, import {main['import_s']:.4f} s adjusted")
    print(f"instance_ms adjusted {[round(a * 1e3, 1) for a in adjusted]}")
    for problem in main["errors"] + main["wrong"]:
        print(f"FAILED {problem}")
    if args.trace:
        metrics = {name: {"value": main["layers"].get(name, 0) / n,
                          "unit": "s" if name.endswith("_s") else "count"}
                   for name in metric_names()}
        metrics["setup.import_s"] = {"value": main["import_s"], "unit": "s"}
    else:
        setups = [p["setup_s"] for p in probes] + [main["setup_s"]]
        print(f"setup samples adjusted {[round(s, 4) for s in setups]}, "
              f"raw {[round(p['setup_raw_s'], 4) for p in probes + [main]]}")
        metrics = {
            "instances_per_s": {"value": n / sum(adjusted), "unit": "1/s"},
            "instance_p50_ms": {"value": statistics.median(adjusted) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": not main["wrong"], "attempted": main["attempted"],
            "failed": main["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="beliefchange benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
