#!/usr/bin/env python3
"""Build the Kona benchmark driver from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload resident|spill|rack \\
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which compiles the kona
library from src/) into the directory named by CARGO_TARGET_DIR, or
.bench_build when it is unset; later runs only re-check the build.
Build output goes to stderr, so the last line of stdout is always the
driver's JSON result. Exits non-zero, printing no result, when the
source tree or the build is missing or broken.

A driver that dies by a signal is a failure of the program under test:
the run is repeated (at most MAX_ATTEMPTS times in all), and each crash
is printed and counted in the result as one attempted and failed
operation, which makes the result's "correct" false.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_ATTEMPTS = 3


def build(build_dir):
    """Configure (once) and build kona_bench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: kona source tree src/ not found in " + ROOT,
              file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "kona_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "kona_bench")


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    if binary is None:
        return 2
    crashes = 0
    for _ in range(MAX_ATTEMPTS):
        # The driver writes its span files under perfbench/out/, relative
        # to the checkout root.
        proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode >= 0:
            break
        crashes += 1
        print("perfbench: kona_bench died by %s; counted as a failed "
              "operation" % signal.Signals(-proc.returncode).name)
    else:
        return 1
    if proc.returncode != 0 or crashes == 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    result["correct"] = False
    result["attempted"] += crashes
    result["failed"] += crashes
    print("\n".join(lines[:-1] + [json.dumps(result)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
