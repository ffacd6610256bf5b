#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fig5_sparse --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and compiles perfbench/ (which compiles ../src)
into .bench_build/perfbench; later runs only check that it is up to date.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. The exit status is the benchmark's: 0 when every output agreed,
1 on a failed or mismatched operation, 2 on a usage error; 3 when the build
fails.
"""
import os
import subprocess
import sys

PKG = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PKG)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")


def child_env():
    # Compiler and runtime temporaries stay inside the checkout as well.
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the simulator sources (src/) are missing; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        subprocess.run(["cmake", "-S", PKG, "-B", BUILD, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=child_env())
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, env=child_env())
    return os.path.join(BUILD, target)


def main():
    args = sys.argv[1:]
    selftest = args == ["--selftest"]
    try:
        exe = build("perfbench_selftest" if selftest else "nsc_perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    sys.stdout.flush()
    if selftest:
        return subprocess.run([exe], cwd=WORK, env=child_env()).returncode
    return subprocess.run([exe] + args, cwd=ROOT, env=child_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
