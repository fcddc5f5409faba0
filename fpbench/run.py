#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 fpbench/run.py --workload table1-small|deadline-all|serve-4x4 \\
        --seed N --seconds S --trace 0|1 [--trace-out FILE]

Builds fpbench/main.exe with dune (the first run in a fresh checkout
compiles the whole library stack) and runs it with the given arguments.
The last line of standard output is the result JSON; the exit code is
the benchmark's own (1 when a correctness check failed). Exits 2 without
a result when the program's sources are not in the current directory.
"""

import os
import shutil
import subprocess
import sys

SOURCES = ["dune-project", "lib/floorplan/remap.ml", "fpbench/main.ml"]
EXE = os.path.join("_build", "default", "fpbench", "main.exe")


def fail(msg):
    print(f"fpbench: {msg}", file=sys.stderr)
    sys.exit(2)


def revision():
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True, check=False)
    return r.stdout.strip() or "unknown"


def main():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("run from the root of a source checkout; missing " + ", ".join(missing))
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    # The shared dune cache lives outside the checkout; keep the build
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run([dune, "build", "--root", ".", "--display", "quiet",
                            "fpbench/main.exe"], env=env, check=False)
    if build.returncode != 0:
        fail("build failed")
    args = sys.argv[1:]
    if "--rev" not in args:
        args += ["--rev", revision()]
    sys.stdout.flush()
    return subprocess.run([EXE] + args, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
