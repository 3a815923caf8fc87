"""Run-to-run spread of the benchmark, with the reference figures beside it.

    python3 bench/spread.py --workload NAME [--seeds 1-10] [--seconds 15] [--trace 0]

Runs bench/run.py once per seed, one run at a time, and prints per run the
end-to-end metrics, the wall-clock time and the share of CPU time the host
stole from this machine over the run (read from /proc/stat, Linux only).
Ends with each metric's median and its quartile spread (Q3 - Q1) / median,
as statistics.quantiles(values, n=4) gives the quartiles.  This is a helper
for setting and checking bounds; the benchmark itself is run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def cpu_counters():
    """(busy, steal) jiffies summed over all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return None
    user, nice, system, idle, iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq + steal, steal


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    shares = []
    for seed in seed_list(args.seeds):
        before, w0 = cpu_counters(), time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        wall, after = time.perf_counter() - w0, cpu_counters()
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        steal = ""
        if before and after and after[0] > before[0]:
            share = (after[1] - before[1]) / (after[0] - before[0])
            shares.append(share)
            steal = f" steal {100 * share:.1f}%"
        print(f"seed {seed}: run wall {wall:.1f} s{steal}; {lines[-2]}")
        print("  attempted %d failed %d correct %s  " % (
            res["attempted"], res["failed"], res["correct"]) + "  ".join(
            f"{k} {v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"\n{args.workload}: {len(seed_list(args.seeds))} runs"
          + (f", steal share median {100 * statistics.median(shares):.1f}%" if shares else ""))
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"  {k:24s} median {med:12.6g}  spread {100 * spread:6.2f}%"
              f"  min {min(vs):.6g}  max {max(vs):.6g}")


if __name__ == "__main__":
    main()
