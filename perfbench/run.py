#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
harness (perfbench/CMakeLists.txt, a Release build of ../src) into
.bench_build/perfbench; later calls rebuild only what changed. Build output
goes to stderr. The arguments go to the harness unchanged, which checks
them. The last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (perfbench/selftest.py checks the
names). Exits non-zero, printing no result, when the build or the run fails.
"""
import ctypes
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def fixed_layout():
    """Turn off address-space randomization for the harness (run in the
    child before exec). Heap and stack placement moves the simulator's
    cache behaviour; a fixed layout keeps it the same in every run of one
    build."""
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def main():
    build()
    try:
        proc = subprocess.run([str(BUILD / "perfbench")] + sys.argv[1:], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout:
        fail(f"harness exited with code {proc.returncode}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
