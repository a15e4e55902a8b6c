#!/usr/bin/env python3
"""The armbar benchmark: build armbar-perfbench from source, run one
workload, check its result and print it as one JSON line.

    python3 perfbench/run.py --workload figures|opt|fuzz|shm --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test     # the benchmark's own tests

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR (default .bench_build) and every file a run writes goes
under it: cmake/ holds the build tree, out/ the per-run logs, result
records and spans. The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are every end_to_end metric of BENCHMARK.json,
with --trace 1 every per_layer one; a per-layer metric of a layer the
workload does not run reads 0.
"""
import argparse
import ctypes
import json
import math
import os
import signal
import subprocess
import sys
import time

START = time.monotonic()
WORKLOADS = ("figures", "opt", "fuzz", "shm")
# Layers (metric-name prefixes) whose per-layer metrics each workload's
# traced run reports. Every other per-layer metric reads 0 there: that
# layer does no work in that workload.
LAYERS = {
    "figures": ("runner", "sim", "trace", "bench"),
    "opt": ("opt", "sim", "trace", "bench"),
    "fuzz": ("fuzz", "sim", "trace", "bench"),
    "shm": ("shm", "bench"),
}
RUN_LIMIT_S = 175  # a run must end within 180 s
BUILD_LIMIT_S = 840  # the first run of a checkout may take 900 s

_child = None
ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout():
    """Runs in the child before exec: turn address-space randomization off,
    so heap and stack alignment, which move sub-millisecond timings by tens
    of percent, are the same in every run."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality(ADDR_NO_RANDOMIZE)


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def _stop_child(signum, _frame):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(128 + signum)


def run(cmd, log_path, timeout, cwd=None):
    """Runs cmd in its own process group with output to log_path; kills the
    whole group on timeout. Returns the exit code (None on timeout)."""
    global _child
    with open(log_path, "wb") as log:
        _child = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=cwd, start_new_session=True,
                                  preexec_fn=_fixed_layout)
        try:
            return _child.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(_child.pid, signal.SIGKILL)
            _child.wait()
            return None
        finally:
            _child = None
ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout():
    """Runs in the child before exec: turn address-space randomization off,
    so heap and stack alignment, which move sub-millisecond timings by tens
    of percent, are the same in every run."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality(ADDR_NO_RANDOMIZE)


def tail(path, n=30):
    with open(path, "rb") as f:
        return b"".join(f.readlines()[-n:]).decode("utf-8", "replace")


def build(root, build_dir, targets):
    src = os.path.join(root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "perfbench-build.log")
    limit = BUILD_LIMIT_S - (time.monotonic() - START)
    if not os.path.exists(cache):
        rc = run(["cmake", "-S", src, "-B", build_dir, "-G", "Ninja",
                  "-DCMAKE_BUILD_TYPE=Release"], log, limit)
        if rc != 0:
            die("configure failed:\n" + tail(log))
    limit = BUILD_LIMIT_S - (time.monotonic() - START)
    rc = run(["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
              "--target"] + targets, log, limit)
    if rc != 0:
        die("build failed:\n" + tail(log))
    with open(cache) as f:
        build_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        die("the libraries are built as '%s', not Release" % build_type)


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(root, workload, traced):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not traced:
        return [(m["name"], m["unit"], False) for m in spec["end_to_end"]]
    return [(m["name"], m["unit"],
             m["name"].split(".", 1)[0] not in LAYERS[workload])
            for m in spec["per_layer"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("CMakeLists.txt", "src", "bench", "BENCHMARK.json",
                 os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, need)):
            die("run from the root of an armbar checkout (no %s here)" % need, 2)
    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)
    base = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(base, "cmake")
    out_dir = os.path.join(base, "out")
    os.makedirs(out_dir, exist_ok=True)

    if args.self_test:
        build(root, build_dir, ["perfbench_test"])
        log = os.path.join(out_dir, "self-test.log")
        rc = run([os.path.join(build_dir, "perfbench_test")], log, 900, cwd=out_dir)
        sys.stdout.write(tail(log, 200))
        sys.exit(0 if rc == 0 else 1)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in 1..60")
    build(root, build_dir, ["armbar-perfbench"])

    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    result_path = os.path.join(out_dir, stem + ".result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    log = os.path.join(out_dir, stem + ".log")
    rc = run([os.path.join(build_dir, "armbar-perfbench"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--root", root, "--result", result_path,
              "--commit", git_commit(root)],
             log, RUN_LIMIT_S - (time.monotonic() - START), cwd=out_dir)
    if rc != 0:
        die("armbar-perfbench %s (log %s):\n%s" % (
            "timed out" if rc is None else "exited %d" % rc, log, tail(log)))
    with open(result_path) as f:
        doc = json.load(f)

    metrics = {}
    for name, unit, untouched in expected_metrics(root, args.workload, args.trace):
        got = doc["metrics"].get(name)
        if got is None and untouched:
            got = {"value": 0, "unit": unit}
        if got is None:
            die("the run did not report %s" % name)
        if got["unit"] != unit:
            die("%s is reported in %s, BENCHMARK.json says %s" % (name, got["unit"], unit))
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            die("%s is %r" % (name, value))
        if args.trace == 0 and value <= 0:
            die("end-to-end metric %s is %r, not > 0" % (name, value))
        metrics[name] = {"value": value, "unit": unit}

    b = doc["build"]
    print("perfbench: %s seed %d trace %d; build %s, %s, nproc %d, commit %s" % (
        args.workload, args.seed, args.trace, b["build_type"], b["compiler"],
        b["nproc"], b["commit"]))
    for c in doc["checks"]:
        if not c["pass"]:
            print("perfbench: check failed: " + c["claim"])
    for line in doc["failures"][:20]:
        print("perfbench: failed: " + line)
    print("perfbench: record " + result_path)
    print(json.dumps({"correct": bool(doc["correct"]),
                      "attempted": int(doc["attempted"]),
                      "failed": int(doc["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
