#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-suite --seed 1 --seconds 20 --trace 0

Builds perfbench/bench.exe from the checkout's sources with dune, then
runs it with the same arguments.  The last line it prints is the JSON
result.  Exits non-zero, without a result, when the checkout cannot be
built (for example when the library sources are missing).
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/bench.exe"


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib")
    ):
        sys.stderr.write("perfbench: no dune project with lib/ at %s\n" % ROOT)
        return 2
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        sys.stderr.write("perfbench: neither dune nor opam is on PATH\n")
        return 2
    # no shared build cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ROOT, "--display", "quiet", TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
