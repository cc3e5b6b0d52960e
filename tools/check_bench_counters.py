#!/usr/bin/env python3
"""Gates locs-bench's deterministic solver counters against a committed file.

    python3 tools/check_bench_counters.py [--update]

Runs `python3 locsbench/run.py --trace 1 --seed 1 --seconds 3` for every
workload named in tools/bench_counters.json and compares the exact `core.*`
counters of its in-process replay (a fixed-length seeded stream, so the
counters do not depend on the run length) with the committed values.
Any drift fails the check: a change that moves a counter on purpose commits
the new values with `--update`. Wall-clock figures of the same runs are
printed for reference and never gated.

Run it from anywhere inside the checkout; locs-bench builds into
.bench_build/ there. Exit status: 0 all counters match, 1 drift, 2 a run
failed or its replies were not all correct.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTERS_FILE = os.path.join(ROOT, "tools", "bench_counters.json")
SEED = 1
# Length of each run's TCP leg; the gated replay counters ignore it.
SECONDS = 3
# Reported alongside, never compared: they are timings.
WALL_CLOCK = ("local_cst.solve_us_p50", "local_csm.solve_us_p50",
              "phase.expansion_ms", "phase.core_ms", "phase.connectivity_ms",
              "server.cpu_us_per_req", "exec.batch_wall_ms")


def fail(message, output):
    print(output, end="")
    print("check_bench_counters: " + message, file=sys.stderr)
    sys.exit(2)


def run_traced(workload):
    command = [sys.executable, os.path.join("locsbench", "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", "1"]
    print("$ " + " ".join(command), flush=True)
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("%s run failed (exit %d)" % (workload, done.returncode),
             done.stdout)
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        fail("%s replies were not all correct" % workload, done.stdout)
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed values from this run")
    args = parser.parse_args()

    with open(COUNTERS_FILE) as f:
        committed = json.load(f)
    drift = []
    for workload, want in committed["workloads"].items():
        got = run_traced(workload)
        for name in sorted(want):
            verdict = "ok" if got[name] == want[name] else "DRIFT"
            print("  %-24s %-24r committed %-24r %s"
                  % (name, got[name], want[name], verdict))
            if verdict != "ok":
                drift.append("%s %s" % (workload, name))
            want[name] = got[name]
        for name in WALL_CLOCK:
            if got.get(name):
                print("  %-24s %-24r (wall clock, not gated)"
                      % (name, got[name]))

    if args.update:
        with open(COUNTERS_FILE, "w") as f:
            json.dump(committed, f, indent=2)
            f.write("\n")
        print("updated %s" % os.path.relpath(COUNTERS_FILE, ROOT))
        return 0
    if drift:
        print("counter drift: " + ", ".join(drift), file=sys.stderr)
        print("if the change is intended, rerun with --update and commit "
              "tools/bench_counters.json", file=sys.stderr)
        return 1
    print("all %d gated counters match" %
          sum(len(w) for w in committed["workloads"].values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
