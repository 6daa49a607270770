#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the WDPT query server.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan-mix --seed 1 --seconds 25 --trace 0

Configures and builds perfbench/ (which compiles the library from src/)
into .bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench when
that is set, then runs the benchmark binary with the given arguments.
The last line of stdout is the result object; everything else, the
build log included, goes to stderr. Exits non-zero without a result
when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                return False
    return True


def main():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    build_dir = os.path.join(base, "perfbench")
    if not build(build_dir):
        sys.stderr.write("perfbench: build failed\n")
        return 1
    binary = os.path.join(build_dir, "wdpt_perfbench")
    work_dir = os.path.join(base, "perfbench-work")
    # Replace this process, so the benchmark is the process the caller
    # started, waits on and can stop.
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:] + ["--work-dir", work_dir])


if __name__ == "__main__":
    sys.exit(main())
