"""Sampling sweep of the protocol route: run_report time and peak memory over trials.

Run from the root of the checkout to measure:

    PYTHONPATH=src python3 scripts/bench_sampling.py --label after

For each (n, mode) in POINTS and each trial count from 10^4 up to
--max-trials (powers of ten), it times run_report on a seeded random n-qubit
state, then takes the tracemalloc peak of one more call.  Full-joint mode
simulates 3n qubits and stops at n = 4 (FULL_JOINT_MAX_QUBITS = 14), so it
has no n = 10 point.  All of it runs in one process.  The labelled section
(with the command, interpreter, numpy version and host) is merged into
--out, keeping the other sections, so two checkouts can be measured under
the same command.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from qent import ProtocolRun, random_state
from qent.protocol import run_report

SEED = 20240817
POINTS = ((4, "exact-marginal"), (10, "exact-marginal"), (4, "full-joint"))
MIN_TRIALS = 10**4


def _repeats(trials: int) -> int:
    return 7 if trials <= 10**6 else 3


def _row(n: int, mode: str, trials: int) -> dict:
    run = ProtocolRun(random_state(n, SEED), trials, SEED + trials, mode)
    run_report(run)  # warm-up
    times = []
    for _ in range(_repeats(trials)):
        start = time.perf_counter()
        run_report(run)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        run_report(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "n": n,
        "mode": mode,
        "trials": trials,
        "calls": len(times),
        "median_s": statistics.median(times),
        "min_s": min(times),
        "tracemalloc_peak_bytes": peak,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="Section name, e.g. before or after.")
    parser.add_argument("--max-trials", type=int, default=10**6,
                        help="Largest trial count swept (a power of ten).")
    parser.add_argument("--out", default="BENCH_sampling.json")
    args = parser.parse_args()

    counts = []
    trials = MIN_TRIALS
    while trials <= args.max_trials:
        counts.append(trials)
        trials *= 10
    rows = [_row(n, mode, t) for n, mode in POINTS for t in counts]
    section = {
        "command": f"PYTHONPATH=src python3 scripts/bench_sampling.py "
        f"--label {args.label} --max-trials {args.max_trials}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
        "run_report": rows,
    }
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[args.label] = section
    path.write_text(json.dumps(doc, indent=2) + "\n")

    for row in rows:
        print(f"n={row['n']:2d} {row['mode']:14s} trials={row['trials']:>9d}  "
              f"median {row['median_s'] * 1e3:9.2f} ms  "
              f"peak {row['tracemalloc_peak_bytes'] / 2**20:8.2f} MiB")


if __name__ == "__main__":
    main()
