#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark itself (set-up, measurement, verification and the JSON
result line) is the Rust program in this directory; this script builds it
from source with cargo and runs it from the repository root, passing the
git revision along when the checkout has one. Build output goes to
`$CARGO_TARGET_DIR`, or `.bench_build` when that is unset.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The run itself is bounded well inside the three minutes a run may take.
RUN_TIMEOUT_S = 175


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "absent"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "absent"
    return out.stdout.strip() if out.returncode == 0 else "absent"


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run(
            [binary, *sys.argv[1:], "--git-rev", git_rev()],
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
