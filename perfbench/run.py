#!/usr/bin/env python3
"""Build and run one LAIN benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library
sources under src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls only re-check the build.  The output of the built
lainbench program is passed through: one line per metric, then a final JSON line
{"correct", "attempted", "failed", "metrics"}.  Exits non-zero, without
a result line, when the sources are missing, the build fails or
lainbench fails.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}", 3)
    exe = os.path.join(out, "lainbench")
    if not os.path.exists(exe):
        fail("build produced no lainbench executable", 3)
    return exe


def git_state():
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse",
                               "--show-toplevel", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        lines = head.stdout.split()
        # Only this checkout's own repository counts, not an enclosing one.
        if head.returncode != 0 or len(lines) != 2 or \
                os.path.realpath(lines[0]) != os.path.realpath(ROOT):
            return "unknown", -1
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
             "perfbench"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=10)
        return lines[1], int(bool(status.stdout.strip()))
    except (OSError, subprocess.SubprocessError):
        return "unknown", -1


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "context.hpp")):
        fail(f"library sources not found under {ROOT}/src", 2)
    out = build_dir()
    exe = build(out)
    commit, dirty = git_state()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit, "--dirty", str(dirty), "--cpu", cpu_model(),
           "--out-dir", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"lainbench exceeded {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = sorted(result) == ["attempted", "correct", "failed",
                                   "metrics"]
    except (json.JSONDecodeError, IndexError):
        valid = False
    if proc.returncode != 0 or not valid:
        sys.stderr.write(proc.stdout)
        fail(f"lainbench failed (exit {proc.returncode})", 5)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
