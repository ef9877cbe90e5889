#!/usr/bin/env python3
"""Build and run the Impeller repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload q1-durable --seed 1 --seconds 10 --trace 0

The Go benchmark in this directory is built from the surrounding source
tree into .bench_build/ (build cache, module cache and temporary files
all stay there), then run with the same arguments. The last line of
standard output is the JSON result. When the build fails -- for
example, when the Impeller sources are not next to this directory --
the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build_env(build_dir):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOMODCACHE=os.path.join(build_dir, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build_dir, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOENV="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    build_dir = os.path.join(ROOT, ".bench_build")
    env = build_env(build_dir)
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # Replace this process with the benchmark, so that a signal sent to
    # it reaches the benchmark and no child process outlives it.
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
