#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload q17-aip|q17-tcp-ckpt|serve-mixed \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench_load from the
checkout's sources into .bench_build/ (the first run compiles the engine),
runs it, checks every answer against the set-up reference and every
degeneration floor, and prints one line per metric followed by one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics over S seconds of untraced load.
--trace 1 runs S seconds in which half the queries have the engine's
Chrome trace and per-operator profile on (Q17 alternates query by query;
serving runs an untraced half, then a traced half), validates the trace
with tools/trace_check.py and reports the per-layer metrics. BENCHMARK.json at
the root describes the workloads, the metrics and what each one should
move. Self-tests: python3 -m unittest discover -s perfbench
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave the checkout as it was
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
LOAD = os.path.join(BUILD_DIR, "perfbench_load")

# The untraced phase runs at least this many queries, so latency_p90_s
# always has ten samples beyond it.
MIN_QUERIES = 110
LOAD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Span names the validated trace must carry, per workload.
TRACE_REQUIRES = {
    "q17-aip": ("dist_query", "fragment_run", "aip_ship"),
    "q17-tcp-ckpt": ("dist_query", "fragment_run", "checkpoint"),
    "serve-mixed": ("session_run", "admission_wait"),
}


def fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(1)


def run_child(cmd, timeout):
    """Runs `cmd`, returning (rc, stdout); stderr passes through. On timeout
    the child is killed and reaped before failing."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout))
    return proc.returncode, out


def declared_units(key):
    """{metric: unit} of BENCHMARK.json's `key` list ("end_to_end" or
    "per_layer"), the one place metric names and units are declared."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no engine sources (src/) beside perfbench/; run from the root "
             "of a checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
               BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        rc, out = run_child(cmd, BUILD_TIMEOUT_S)
        sys.stderr.write(out)
        if rc != 0:
            fail("configure failed")
    rc, out = run_child(["cmake", "--build", BUILD_DIR, "-j",
                         str(os.cpu_count() or 2)], BUILD_TIMEOUT_S)
    sys.stderr.write(out)
    if rc != 0 or not os.path.isfile(LOAD):
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build()
    trace_path = os.path.join(
        BUILD_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
    # A trace left by an earlier run must not pass for this run's.
    if os.path.exists(trace_path):
        os.remove(trace_path)
    cmd = [LOAD, "--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        half = args.seconds / 2
        cmd += ["--seconds", repr(half), "--trace-seconds", repr(half),
                "--trace-out", trace_path]
    else:
        cmd += ["--seconds", repr(args.seconds),
                "--min-queries", str(MIN_QUERIES)]
    rc, out = run_child(cmd, LOAD_TIMEOUT_S)
    if rc != 0:
        fail("perfbench_load exited with %d" % rc)

    try:
        run = metrics.Run(args.workload,
                          [json.loads(line) for line in out.splitlines()])
        run.check_floors()
        attempted, failed, wrong = run.errors()
        values = run.per_layer() if args.trace else run.end_to_end()
    except (metrics.BenchError, KeyError, ValueError) as e:
        fail(str(e))
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        fail("metrics %s differ from BENCHMARK.json's %s"
             % (sorted(values), sorted(units)))

    if args.trace:
        check = [sys.executable, os.path.join(ROOT, "tools", "trace_check.py"),
                 trace_path]
        for name in TRACE_REQUIRES[args.workload]:
            check += ["--require", name]
        rc, _ = run_child(check, 60)
        if rc != 0:
            fail("tools/trace_check.py rejected %s" % trace_path)

    for name, value in values.items():
        print("%-24s %14.6g %s" % (name, value, units[name]))
    print("attempted %d, failed %d (wrong answers %d), error_rate %.6g"
          % (attempted, failed, wrong, failed / attempted))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))


if __name__ == "__main__":
    main()
