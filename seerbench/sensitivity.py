#!/usr/bin/env python3
"""seer-bench sensitivity check: is a 10% slowdown caught by the bound?

Usage (from the repository root):

    python3 seerbench/sensitivity.py [--workloads ...] [--seeds 1 2 3]

For every workload and seed it makes a normal run, then a normal and a
slowed run in alternating order. In the slowed run, run.py's --spin-ns
adds a busy-wait to every line inside the timed region: 10% of the
workload's time per line, taken as the median over the first normal
runs of 1 / throughput_lps. The slowdown is flagged when the median
throughput_lps of the slowed runs is worse than the normal runs' median
by more than
the bound BENCHMARK.json gives throughput_lps, the rule a regression is
judged by. Exits 1 when any workload is not flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


SLOWDOWN = 0.10


def run(workload, seed, spin_ns):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(DECLARED["run_seconds"]),
           "--trace", "0"]
    if spin_ns:
        cmd += ["--spin-ns", str(spin_ns)]
    got = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if got.returncode != 0:
        sys.stderr.write(got.stderr)
        sys.exit(f"run.py failed for {workload} seed {seed}")
    return json.loads(got.stdout.strip().splitlines()[-1])["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in DECLARED["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = parser.parse_args()
    bound = next(m["bound"] for m in DECLARED["end_to_end"]
                 if m["name"] == "throughput_lps")

    missed = []
    for workload in args.workloads:
        base = [run(workload, s, 0) for s in args.seeds]
        line_ns = statistics.median(1e9 / m["throughput_lps"]["value"]
                                    for m in base)
        spin_ns = round(SLOWDOWN * line_ns)
        slowed, again = [], []
        for i, seed in enumerate(args.seeds):
            # Alternate order: re-measure the normal run after or before
            # the slowed one so drift hits both sides alike.
            if i % 2:
                slowed.append(run(workload, seed, spin_ns))
                again.append(run(workload, seed, 0))
            else:
                again.append(run(workload, seed, 0))
                slowed.append(run(workload, seed, spin_ns))
        normal = [m["throughput_lps"]["value"] for m in base + again]
        spun = [m["throughput_lps"]["value"] for m in slowed]
        drop = 1.0 - statistics.median(spun) / statistics.median(normal)
        flagged = drop > bound
        print(json.dumps({"workload": workload, "spin_ns": spin_ns,
                          "slowdown": SLOWDOWN,
                          "normal_lps": normal, "slowed_lps": spun,
                          "drop": round(drop, 4), "bound": bound,
                          "flagged": flagged}), flush=True)
        if not flagged:
            missed.append(workload)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
