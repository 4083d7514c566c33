#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-suite --seed 6 --seconds 20 --trace 0

It builds portendd and the benchmark command from source into
.bench_build/ (the Go build cache lives there too, so nothing is written
outside the checkout), then runs the benchmark with the given arguments.
The benchmark's last line of standard output is its JSON result; build
output and progress go to standard error. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    tmp = os.path.join(build, "tmp")
    os.makedirs(bindir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    env.pop("GOMAXPROCS", None)

    portendd = os.path.join(bindir, "portendd")
    bench = os.path.join(bindir, "perfbench")
    builds = [
        (["go", "build", "-o", portendd, "./cmd/portendd"], root),
        (["go", "build", "-o", bench, "."], os.path.join(root, "perfbench")),
    ]
    for cmd, cwd in builds:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    done = subprocess.run(
        [bench, "--portendd", portendd, "--workdir", build] + sys.argv[1:],
        cwd=root,
        env=env,
    )
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
