"""Benchmark of the maxrep library, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in fresh single-threaded worker processes and prints, as
the last line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics (taken by wrapping the library's public functions)
with --trace 1.  Times are process CPU times scaled to a fixed speed of a
reference slice timed between items (see worker.py).  Set-up time is the
median over SETUPS processes.
Workloads and metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(HERE, "out")
WORKLOADS = ("pants-coords", "surface-build", "components", "limit-sample")
SETUPS = 3          # processes whose set-up time is measured; the median is reported
DEADLINE_S = 175    # the whole command, all workers included

END_TO_END = {
    "items_per_s": "1/s", "item_ms_p50": "ms", "item_ms_tail": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "accuracy_digits": "digits",
}


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def worker(args, deadline, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", OUTDIR, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("worker printed no result")
    return json.loads(lines[-1])


def _terminate(signum, frame):
    # unwinding through subprocess.run kills and reaps the running worker
    raise SystemExit(f"stopped by signal {signum}")


def main():
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "maxrep")):
        raise SystemExit(f"no maxrep sources under {os.path.join(ROOT, 'src')}")

    deadline = time.monotonic() + DEADLINE_S
    setups = [] if args.trace else [
        worker(args, deadline, "--setup-only") for _ in range(SETUPS - 1)]
    res = worker(args, deadline)
    setups.append({"setup_s": res["metrics"]["setup_s"], "setup_cpu_s": res["setup_cpu_s"]})
    res["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)

    refs = res["slowness"]
    print(f"workload {args.workload}, seed {args.seed}: {res['attempted']} items in "
          f"{res['rounds']} rounds ({res['phase_s']:.2f} s), {res['failed']} failed; tail is "
          f"p{res['tail_percentile']:.1f}; set-up CPU s {[round(s['setup_cpu_s'], 4) for s in setups]}; "
          f"unscaled {res['raw_items_per_s']:.4f} items/s; item p50: CPU {res['raw_ms_p50']:.3f} ms, "
          f"wall {res['wall_ms_p50']:.3f} ms"
          f", scaled {res['metrics']['item_ms_p50']:.3f} ms; slowness measured "
          f"{len(refs)} times, median {statistics.median(refs):.3f}, "
          f"range {min(refs):.3f}-{max(refs):.3f}")
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {name: {"value": res["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
