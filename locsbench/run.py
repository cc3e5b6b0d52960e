#!/usr/bin/env python3
"""locs-bench: builds locsd, locs_cli and the harness from this checkout's
sources, prepares the input graphs, and measures one workload.

    python3 locsbench/run.py --workload cst_uniform --seed 1 --seconds 15 --trace 0

Run it from the repository root. The last line of standard output is the
JSON result; build output goes to standard error. The exit status is
nonzero when any reply failed its correctness check, a ledger check
failed, or the build or inputs are missing.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cst_uniform", "hot_cached", "mixed_reload", "batch_kcore")
RUN_TIMEOUT_S = 170


def fail(message):
    print("locs-bench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def check_sources():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail("no locs sources next to %s; run from a full checkout" % HERE)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("%s not found" % tool)


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "locs_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def stop_group(pgid):
    """SIGKILLs what is left of the process group and waits until it is
    gone (at most 10 s)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.waitpid(pgid, os.WNOHANG)
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    check_sources()
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    # One build/prep at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            build(out)
        except subprocess.CalledProcessError as error:
            fail("build failed: %s" % error)
        harness = os.path.join(out, "locs_bench")
        data = os.path.join(out, "data")
        if subprocess.run([harness, "prep", "--data", data],
                          stdout=sys.stderr).returncode != 0:
            fail("input preparation failed")

    work = os.path.join(out, "runs", "%s-%d-%d" % (args.workload, args.seed,
                                                   args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [harness, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--data", data, "--work", work,
               "--locsd", os.path.join(out, "locs", "tools", "locsd"),
               "--cli", os.path.join(out, "locs", "tools", "locs_cli")]
    # The harness and the daemons it spawns share a new process group, so
    # nothing outlives the run even if the harness dies.
    harness_process = subprocess.Popen(command, start_new_session=True)
    try:
        code = harness_process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    stop_group(harness_process.pid)
    if code is None:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
