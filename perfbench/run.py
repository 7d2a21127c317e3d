#!/usr/bin/env python3
"""Builds the StoryPivot benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload bulk_detect --seed 1 --seconds 45 \
        --trace 0 [--bulk-threads 4] [--record-dir DIR]

The program and the benchmark binary (perfbench/CMakeLists.txt) are built in
`$CARGO_TARGET_DIR/perfbench` (default `.bench_build/perfbench`), then the
binary runs the workload. The last line of stdout is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
with `--trace 0`, per-layer metrics with `--trace 1`); the line before it
carries the run metadata. The full record of the run is also written to
`--record-dir` (default `<build dir>/runs`), which `perfbench/summary.py`
reads. Everything the run writes stays under the build directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("bulk_detect", "doc_churn")
# A run must end within this many seconds of starting run.py.
RUN_LIMIT_S = 175.0


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(command, env, log_path):
    with open(log_path, "w") as log:
        result = subprocess.run(command, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
    if result.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        fail("build step failed: %s\n%s" % (" ".join(command), tail))


def build(out_dir, env):
    """Configures once, then (re)builds the benchmark binary; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        run_quiet(configure, env, log_path)
    run_quiet(["cmake", "--build", out_dir, "--target", "storypivot_bench",
               "-j", "4"], env, log_path)
    return os.path.join(out_dir, "storypivot_bench")


def source_hash():
    """Content hash of the program's sources (the checkout may not be a
    git repository)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def cpu_times():
    """Aggregate (steal, total) jiffies of the host's CPUs, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def run_bench(command, env, work_dir, budget):
    """Runs the benchmark binary once; returns its record and exit code."""
    cpu_before = cpu_times()
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("workload did not finish within %.0f s" % budget)
    shutil.rmtree(work_dir, ignore_errors=True)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("storypivot_bench exited with %d and printed no result" %
             process.returncode)
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("storypivot_bench printed no JSON result: %r" % lines[-1][:200])
    cpu_after = cpu_times()
    if cpu_before and cpu_after and cpu_after[1] > cpu_before[1]:
        # CPU time the hypervisor gave to other guests during the run: a
        # run with much steal is slower for reasons outside the program.
        record["meta"]["host_steal_pct"] = round(
            100.0 * (cpu_after[0] - cpu_before[0]) /
            (cpu_after[1] - cpu_before[1]), 2)
    return record, process.returncode


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--bulk-threads", type=int, default=4)
    parser.add_argument("--record-dir", default=None)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("program sources not found: %s is missing" % required, 2)
    if shutil.which("cmake") is None:
        fail("cmake is not installed", 2)

    out_dir = build_dir()
    scratch = os.path.join(out_dir, "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    binary = build(out_dir, env)

    work_dir = os.path.join(out_dir, "work-%d" % os.getpid())
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               args.trace, "--work-dir", work_dir, "--bulk-threads",
               str(args.bulk_threads)]
    if args.trace == "1":
        command += ["--trace-dir", trace_dir]
    run_started = time.monotonic()
    # The first run in a checkout pays for the build; later ones must
    # still end within the per-run limit.
    budget = max(RUN_LIMIT_S - (run_started - started), 60.0)
    record, returncode = run_bench(command, env, work_dir, budget)
    record["meta"].update({
        "git_sha": git_sha(),
        "source_hash": source_hash(),
        "command": ["python3", "perfbench/run.py"] + sys.argv[1:],
        "wall_s": round(time.monotonic() - run_started, 3),
    })
    record_dir = args.record_dir or os.path.join(out_dir, "runs")
    if not os.path.isabs(record_dir):
        record_dir = os.path.join(ROOT, record_dir)
    os.makedirs(record_dir, exist_ok=True)
    name = "%s-seed%d-trace%s-%d.json" % (args.workload, args.seed,
                                          args.trace, time.time_ns())
    with open(os.path.join(record_dir, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"meta": record["meta"]}, sort_keys=True))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()
    if not record["correct"] or returncode != 0:
        for failure in record.get("gate_failures", []):
            print("perfbench: gate failed: " + failure, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
