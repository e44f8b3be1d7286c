#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload hunt|loop|harden [--seed N]
        [--seconds S] [--trace 0|1] [--workers N]

Run it from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR (default .bench_build), and the benchmark runs there,
so the traced run's span dump lands beside the build.  The last line
of stdout is the result as one JSON object; the exit code is the
benchmark's (0 = every check passed, 1 = a check failed or the build
failed, 2 = bad command line).  README.md describes the workloads and
metrics.
"""
import os
import subprocess
import sys

USAGE = ("usage: run.py --workload hunt|loop|harden [--seed N] "
         "[--seconds S] [--trace 0|1] [--workers N] [--break-check]")

# flag -> accepted values: a set of words, or an inclusive range of
# whole numbers (the same limits main.cpp enforces).  --break-check
# takes no value and exists for the benchmark's own failure test.
FLAGS = {
    "--workload": {"hunt", "loop", "harden"},
    "--seed": (0, 1 << 40),
    "--seconds": (1, 3600),
    "--trace": {"0", "1"},
    "--workers": (1, 64),
}


def parse(argv):
    """Returns the validated argument list, or None."""
    out, seen, i = [], set(), 0
    while i < len(argv):
        flag = argv[i]
        if flag == "--break-check":
            out.append(flag)
            i += 1
            continue
        if flag not in FLAGS or flag in seen or i + 1 >= len(argv):
            return None
        value = argv[i + 1]
        allowed = FLAGS[flag]
        if isinstance(allowed, set):
            if value not in allowed:
                return None
        elif not (value.isascii() and value.isdigit()
                  and allowed[0] <= int(value) <= allowed[1]):
            return None
        seen.add(flag)
        out += [flag, value]
        i += 2
    return out if "--workload" in seen else None


def build(build_dir):
    """Configures (once) and builds the benchmark; build output goes to
    stderr so stdout stays the benchmark's."""
    src = os.path.dirname(os.path.abspath(__file__))
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "e2ebench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(cmake_dir, "e2ebench")


def main():
    args = parse(sys.argv[1:])
    if args is None:
        print(USAGE, file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + args, cwd=build_dir).returncode


if __name__ == "__main__":
    sys.exit(main())
