#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload hilbert_chain --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental; its output goes to standard error. Spill files and
compiler temporaries stay under the build directory. Every argument is passed
to the benchmark binary; its last line of standard output is the result
object. A failed build exits with status 1 and prints no result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, env):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def main():
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    spill_dir = os.path.join(build_dir, "spill")
    for path in (tmp_dir, spill_dir):
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)

    env = dict(os.environ)
    env["TMPDIR"] = tmp_dir
    env["MRTHETA_SPILL_DIR"] = spill_dir
    # The workloads set their own fault and memory configuration.
    env.pop("MRTHETA_FAULT_PLAN", None)
    env.pop("MRTHETA_MEM_BUDGET", None)

    try:
        binary = build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], env=env).returncode
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
        shutil.rmtree(tmp_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
