#!/usr/bin/env python3
"""Builds and runs the WebdamLog end-to-end benchmark.

    python3 perfbench/run.py --workload wepic|social|large_view|cluster_tcp \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --tiny      # every workload at toy size:
                                         # checks each named metric prints
                                         # with its unit

Run from the repository root. The benchmark is built from source into
.bench_build/perfbench (CMake, Release). Its report goes to stdout; the
last line is one JSON object with the metrics BENCHMARK.json names for
the mode: the end-to-end ones with --trace 0, the per-layer ones with
--trace 1. Every process the run starts is stopped and reaped, and its
scratch directory removed, on every exit path.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ["wepic", "social", "large_view", "cluster_tcp"]
# These switch code paths process-wide (CI jobs set them).
REFUSED_ENV = ["WDL_EVAL_THREADS", "WDL_WORKER_THREADS", "WDL_QUERY_DEMAND"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the repository sources are missing next to " + HERE)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see " + log_path)
    return os.path.join(BUILD, "perfbench")


def reap_all(deadline_s=10.0):
    """Waits for every child, including orphans re-parented to us."""
    end = time.time() + deadline_s
    while time.time() < end:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def run_binary(binary, args):
    """Runs the benchmark in its own process group and returns (code,
    stdout). Daemons it spawns inherit the group; as child subreaper
    this process also inherits them if the benchmark dies first, so the
    final kill-and-reap sees them all."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    workdir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)

    def on_signal(signum, _frame):
        raise KeyboardInterrupt("signal %d" % signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    proc = None
    try:
        proc = subprocess.Popen([binary] + args + ["--workdir", workdir],
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        out, _ = proc.communicate()
        return proc.returncode, out
    finally:
        if proc is not None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        reap_all()
        # Span files outlive the run; everything else in its scratch
        # directory (relay data dirs, logs) goes.
        for name in os.listdir(workdir) if os.path.isdir(workdir) else []:
            if name.startswith("trace-"):
                os.makedirs(TRACES, exist_ok=True)
                os.replace(os.path.join(workdir, name), os.path.join(TRACES, name))
        shutil.rmtree(workdir, ignore_errors=True)


def contract_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_one(binary, workload, seed, seconds, trace, tiny=False):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if trace else "0"]
    code, out = run_binary(binary, args + (["--tiny"] if tiny else []))
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail("benchmark exited with code %d" % code)
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("spans: "):
            # The span file was written in the run's scratch directory.
            line = "spans: " + os.path.join(
                os.path.relpath(TRACES, ROOT),
                os.path.basename(line.split()[1]))
        print(line)
    return report


def select(report, wanted):
    """The report restricted to the contract's metrics for the mode."""
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s (%s) missing from the report" % (m["name"], m["unit"]))
        metrics[m["name"]] = got
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    try:
        run()
    except KeyboardInterrupt:
        sys.exit(130)


def run():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run every workload at toy size, both modes, "
                             "and check every contract metric prints")
    args = parser.parse_args()
    for var in REFUSED_ENV:
        if var in os.environ:
            fail("refusing to run with %s set: it switches code paths" % var)
    binary = build()
    if args.tiny:
        for workload in WORKLOADS:
            for trace in (False, True):
                report = run_one(binary, workload, args.seed, 1, trace, tiny=True)
                select(report, contract_metrics(trace))
                if not report["correct"] or report["failed"]:
                    fail("%s: model checks failed" % workload)
        print("tiny mode: every workload printed every metric with its unit")
        return
    if args.workload is None:
        parser.error("--workload is required")
    report = run_one(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(select(report, contract_metrics(args.trace == 1))))


if __name__ == "__main__":
    main()
