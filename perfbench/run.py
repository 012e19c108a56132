#!/usr/bin/env python3
"""Build and run the MORE-Stress benchmark of record.

    python3 perfbench/run.py --workload paper_arrays --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test          # the benchmark's own tests

Run from the repository root. The benchmark is compiled from the sources in
this checkout into the build directory named by $CARGO_TARGET_DIR (default
.bench_build) on first use; later runs only re-check the build. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Each run also writes its specs (config text re-runnable with
`tools/sweep --config`) and, when traced, its spans under <build>/runs/.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configure (once) and build `target`; returns False on failure."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def git_commit():
    """The checkout's commit, read from .git without leaving the checkout."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main(argv):
    if argv == ["--test"]:
        if not build("perfbench_tests"):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")], cwd=ROOT).returncode
    if not build("perfbench"):
        return 2
    command = [os.path.join(BUILD, "perfbench"), *argv,
               "--out-dir", os.path.join(BUILD, "runs"), "--git-commit", git_commit()]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
