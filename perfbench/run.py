#!/usr/bin/env python3
"""Build and run the host serving benchmark.

    python3 perfbench/run.py --workload chat_bf16 --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the repository's libraries from src/) into
.bench_build/perfbench; later calls rebuild only what changed. All
arguments go to the benchmark binary, whose last stdout line is the
JSON result. With --trace 1 the Chrome trace of the traced half is
written to .bench_build/perfbench/trace_<workload>.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")


def build():
    """Configure (once) and build; compiler output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main(argv):
    build()
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = "unknown"
        if "--workload" in args:
            workload = (args[args.index("--workload") + 1:] or [workload])[0]
        args += ["--trace-out",
                 os.path.join(BUILD, "trace_%s.json" % workload)]
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
