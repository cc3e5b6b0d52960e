#!/usr/bin/env python3
"""Self-test of locs-bench.

    python3 locsbench/selftest.py [workload ...]

For each workload (default: all four) it replays the traced stream twice
with one seed and once with another, without a daemon, and checks that

  * the exact counts repeat bit for bit for the same seed, and change
    with the seed;
  * the traced run reports exactly the per-layer metrics BENCHMARK.json
    lists, with the units it lists;
  * every reply was correct.

Exit status 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (build helpers shared with the benchmark command)

EXACT = ("core.visited_per_query", "core.scanned_per_query",
         "core.fallback_ratio", "core.answer_size_mean",
         "transport.reply_bytes")
SEEDS = (7, 7, 8)


def counts(harness, out, workload, seed):
    work = os.path.join(out, "runs", "selftest-%s-%d" % (workload, seed))
    os.makedirs(work, exist_ok=True)
    result = subprocess.run(
        [harness, "counts", "--workload", workload, "--seed", str(seed),
         "--data", os.path.join(out, "data"), "--work", work],
        capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    last = result.stdout.strip().splitlines()[-1]
    return result.returncode, json.loads(last)


def main():
    workloads = sys.argv[1:] or list(run.WORKLOADS)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"]: m["unit"]
                    for m in json.load(f)["per_layer"]}
    run.check_sources()
    out = run.build_dir()
    os.makedirs(out, exist_ok=True)
    run.build(out)
    harness = os.path.join(out, "locs_bench")
    subprocess.run([harness, "prep", "--data", os.path.join(out, "data")],
                   check=True, stdout=sys.stderr)
    failures = []
    for workload in workloads:
        results = []
        for seed in SEEDS:
            code, result = counts(harness, out, workload, seed)
            if code != 0 or not result["correct"]:
                failures.append("%s seed %d: run failed (exit %d)"
                                % (workload, seed, code))
            results.append(result["metrics"])
        reported = {name: m["unit"] for name, m in results[0].items()}
        if reported != declared:
            failures.append("%s: per-layer metrics differ from BENCHMARK.json"
                            ": %s" % (workload, sorted(
                                set(reported.items()) ^ set(declared.items()))))
        # batch_kcore sends no replies over a transport.
        exact = [name for name in EXACT
                 if not (workload == "batch_kcore" and
                         name == "transport.reply_bytes")]
        for name in exact:
            first, again, other = (r[name]["value"] for r in results)
            if first != again:
                failures.append("%s: %s differs between two runs of seed %d: "
                                "%r vs %r" % (workload, name, SEEDS[0], first,
                                              again))
            if first == other:
                failures.append("%s: %s did not change with the seed (%r)"
                                % (workload, name, first))
        print("%-13s %s" % (workload, " ".join(
            "%s=%.17g" % (name, results[0][name]["value"]) for name in exact)))
    for failure in failures:
        print("FAILED: " + failure)
    print("selftest: %s" % ("ok" if not failures else "%d failure(s)"
                            % len(failures)))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
