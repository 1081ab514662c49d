#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload crud-ha --seed 1 --seconds 30 --trace 0

The perfbench Go module compiles the repository's packages from the
checkout into .bench_build/perfbench, then runs it with the given
arguments. The Go build cache, temporary files and tool state also live
under .bench_build/, so nothing is read from the network or written
outside the checkout. The exit code is the benchmark's; a failed build
exits with 2 and prints no result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "-mod=readonly",
    })
    for d in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
