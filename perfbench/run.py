#!/usr/bin/env python3
"""Build and run the end-to-end RnB benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ego_idle --seed 1 --seconds 30 --trace 0

Builds the `rnb-stored` daemon from the workspace and the `perfbench`
binary from its own package, both in release mode into the same target
directory (`$CARGO_TARGET_DIR`, default `.bench_build`), then runs the
binary with the given arguments. Its last stdout line is the JSON
result. Exits non-zero, printing no result, if a build fails.
"""

import os
import subprocess
import sys


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "rnb-store", "--bin", "rnb-stored"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            return 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
