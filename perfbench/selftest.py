#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

For every workload it makes two short untraced runs with the same seed and
one traced run. It checks that:
- the printed metric names equal BENCHMARK.json's, none missing, none unknown;
- every run is correct;
- the same seed gives identical simulated metrics and sim digests;
- the traced run reproduces the untraced digest.
Exits non-zero on the first failed check.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIMULATED = ("sim_makespan_s", "speedup_vs_grcuda", "serve_p50_ms", "serve_p95_ms",
             "serve_max_rate_hz", "serve_throughput_hz", "success_frac")
SEED = 11


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: run.py exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    digest = re.search(r"sim_digest=([0-9a-f]+)", proc.stdout)
    if digest is None:
        sys.exit(f"FAIL {workload}: no sim_digest line")
    return json.loads(lines[-1]), digest.group(1)


def check(cond, msg):
    if not cond:
        sys.exit("FAIL " + msg)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    check(set(SIMULATED) <= names[0], "SIMULATED lists a metric BENCHMARK.json lacks")
    for w in (w["name"] for w in spec["workloads"]):
        first, d1 = run(w, 0)
        second, d2 = run(w, 0)
        traced, d3 = run(w, 1)
        for trace, result in ((0, first), (0, second), (1, traced)):
            got = set(result["metrics"])
            check(got == names[trace],
                  f"{w} trace={trace}: missing {sorted(names[trace] - got)}, "
                  f"unknown {sorted(got - names[trace])}")
            check(result["correct"] is True, f"{w} trace={trace}: run not correct")
        check(d1 == d2, f"{w}: same seed gave digests {d1} and {d2}")
        check(d1 == d3, f"{w}: traced digest {d3} differs from untraced {d1}")
        for m in SIMULATED:
            a, b = first["metrics"][m]["value"], second["metrics"][m]["value"]
            check(a == b, f"{w}: {m} differs between same-seed runs ({a} vs {b})")
        check((first["attempted"], first["failed"]) == (second["attempted"], second["failed"]),
              f"{w}: attempted/failed differ between same-seed runs")
        print(f"ok {w} digest={d1} attempted={first['attempted']} failed={first['failed']}")
    print("selftest passed")


if __name__ == "__main__":
    main()
