#!/usr/bin/env python3
"""Build and run the tinprov benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload replay-prop --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first form configures and builds perfbench/ (which pulls in the
tinprov library from the checkout's src/) in Release mode under
$CARGO_TARGET_DIR (default .bench_build), runs one workload, and passes
the binary's output through: its last line is the JSON result. With
--trace 1 the result carries the per-layer metrics and a chrome://tracing
span file lands in <build dir>/perfbench-results/.

--selftest builds, then runs every workload on a tiny input with all
checks on (traced and untraced), runs each again with one answer
perturbed and requires the correctness check to fail, and requires an
input below the scale-10 size to be refused.

Exit status is non-zero, with no result line, when the build fails, a
check fails, a degenerate setup is refused, or the run overruns.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay-prop", "serve-live", "durable-restart")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build():
    """Configures and builds the harness; returns the binary's path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log("missing %s: run from a full tinprov checkout" % needed)
            sys.exit(2)
    if shutil.which("cmake") is None:
        log("cmake not found")
        sys.exit(2)
    out = os.path.join(build_dir(), "perfbench")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("build timed out: " + " ".join(step))
            sys.exit(2)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            sys.exit(2)
    return os.path.join(out, "perfbench")


def run(binary, args, capture=False):
    """Runs the binary with a scratch data directory it owns; returns
    (exit code, stdout lines)."""
    data = os.path.join(build_dir(), "perfbench-data", str(os.getpid()))
    results = os.path.join(build_dir(), "perfbench-results")
    cmd = [binary] + args + ["--data-dir", data, "--out", results]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run exceeded %d s: %s" % (RUN_TIMEOUT_S, " ".join(args)))
        return 1, []
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if not capture:
        # A failed run prints no result: its partial output goes to stderr.
        stream = sys.stdout if proc.returncode == 0 else sys.stderr
        stream.write(out)
        stream.flush()
    return proc.returncode, out.splitlines()


def selftest(binary):
    failures = []

    def expect(args, code, what):
        rc, lines = run(binary, args, capture=True)
        ok = rc == code
        if ok and code == 0:
            result = json.loads(lines[-1])
            ok = result["correct"] is True and result["failed"] == 0
        log("%-60s %s (exit %d)" % (what, "ok" if ok else "FAILED", rc))
        if not ok:
            failures.append(what)

    base = ["--seed", "7", "--seconds", "0.1"]
    for workload in WORKLOADS:
        w = ["--workload", workload] + base
        expect(w + ["--trace", "0", "--selftest"], 0, workload + " untraced")
        expect(w + ["--trace", "1", "--selftest"], 0, workload + " traced")
        expect(w + ["--trace", "0", "--selftest", "--perturb"], 3,
               workload + " perturbed answer trips the check")
        expect(w + ["--trace", "0", "--scale", "1"], 4,
               workload + " below scale 10 is refused")
    if failures:
        log("self-test failed: " + ", ".join(failures))
        return 1
    log("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if args.selftest:
        return selftest(binary)
    rc, _ = run(binary, ["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", repr(args.seconds), "--trace", args.trace])
    return rc


if __name__ == "__main__":
    sys.exit(main())
