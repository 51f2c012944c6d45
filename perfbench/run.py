#!/usr/bin/env python3
"""Build and run the Farview host wall-clock benchmark.

    python3 perfbench/run.py --workload <scan|operators|serve|tiered> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` cargo package (a package of its own, compiled
against the repository's crates by path) in release mode into
$CARGO_TARGET_DIR (default: .bench_build under the current directory),
then runs it with the given arguments from the current directory. The
last line of standard output is the benchmark's JSON result; build
output goes to standard error. The exit code is the benchmark's, or
non-zero without a result when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
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
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
