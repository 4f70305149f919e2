#!/usr/bin/env python3
"""Build and run one perfbench workload, then print its result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the library and the perfbench binary optimized (-O2 -DNDEBUG) into
.bench_build/ with perfbench/CMakeLists.txt, runs the workload once and
prints every metric with its unit and tag. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the
per-layer ones, and the Chrome trace is written to .bench_out/.

Exit status is 0 only when the build, the run and the correctness checks all
pass. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("analytics-cpupar", "analytics-gpusim", "serve-read", "serve-mutate")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure once, then build incrementally. Build output goes to stderr."""
    for flag in ("CXXFLAGS", "CFLAGS", "LDFLAGS"):
        if "-fsanitize" in os.environ.get(flag, ""):
            fail(f"{flag} asks for a sanitizer build; refusing to time it")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run([cmake, "-S", HERE, "-B", BUILD],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(max(1, min(nproc(), 4)))
    subprocess.run([cmake, "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    cache = open(os.path.join(BUILD, "CMakeCache.txt")).read()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache or "-fsanitize" in cache:
        fail("build tree is not an optimized, unsanitized Release build")


def fmt(name, m):
    tags = m["tag"] + (", exact" if m.get("exact") else "")
    n = f" n={m['samples']}" if m.get("samples") else ""
    return f"  {name:<44} {m['value']:>16.6g} {m['unit']:<7} [{tags}]{n}"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    load = os.getloadavg()
    log(f"perfbench: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    log(f"perfbench: nproc={nproc()} loadavg={load[0]:.2f} {load[1]:.2f} {load[2]:.2f}")
    try:
        build()
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    trace_file = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    if args.trace:
        cmd += ["--trace-out", trace_file]
    # The library's engine overrides (GBTL_*) would pin code paths; the
    # benchmark measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GBTL_")}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    raw = json.loads(lines[-1])

    info = raw["info"]
    log(f"perfbench: compiler=g++ {info.get('compiler')} "
        f"build={info.get('build_type')} flags='{info.get('cxx_flags', '').strip()}' "
        f"compute_threads={info.get('compute_threads')}")
    for k in sorted(info):
        if k not in ("compiler", "build_type", "cxx_flags", "compute_threads",
                     "nproc"):
            log(f"perfbench: {k}={info[k]}")

    # The result line takes its metric names and units from BENCHMARK.json.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    got_all = raw["per_layer"] if args.trace else raw["end_to_end"]
    metrics = {}
    for m in wanted:
        got = got_all.get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} missing")
            # The layer does no work on this workload: a true zero.
            got = {"value": 0, "unit": m["unit"], "tag": "not applicable"}
            raw["per_layer"][m["name"]] = got
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    log("end-to-end metrics (untraced run):")
    for name, m in sorted(raw["end_to_end"].items()):
        log(fmt(name, m))
    log("per-layer metrics:" if args.trace else
        "per-layer metrics (untraced run; the traced run prints all of them):")
    for name, m in sorted(raw["per_layer"].items()):
        log(fmt(name, m))
    if args.trace:
        log("self time per span (s, spans):")
        for name, (self_s, count) in sorted(raw["self_time_s"].items(),
                                            key=lambda kv: -kv[1][0]):
            log(f"  {name:<44} {self_s:>12.6f} {count:>7}")
        log(f"perfbench: trace written to {os.path.relpath(trace_file, ROOT)}")

    correct = bool(raw["correct"])
    for msg in raw["mismatches"]:
        log(f"perfbench: MISMATCH {msg}")
    err = raw["failed"] / raw["attempted"] if raw["attempted"] else 0.0
    log(f"perfbench: correct={correct} attempted={raw['attempted']} "
        f"failed={raw['failed']} error_rate={err:.6g}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
