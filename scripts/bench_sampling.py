"""Sampling sweep of the protocol route: run_report time and peak memory over trials.

Run from the root of the checkout to measure:

    PYTHONPATH=src python3 scripts/bench_sampling.py --label after

For each (n, mode) in POINTS and each trial count from 10^4 up to
--max-trials (powers of ten), it times run_report on a seeded random n-qubit
state, then takes the tracemalloc peak of one more call.  A state remembers
the purities computed on it, so each timed call gets a run on a fresh copy
of the state, built outside the timed region; the ``repeat_`` columns time
run_report again on one run, which reads the purities back.  Full-joint mode
reads the 2^n subset-purity table and accepts n up to JOINT_MODE_MAX_QUBITS
(13).  POINTS keeps its one point at n = 4, the cap when full-joint mode
simulated 3n qubits, so that every section of BENCH_sampling.json has the
same points.  All of it runs in one process.  The labelled section (with
the command, interpreter, numpy version and host) is merged into --out,
keeping the other sections, so two checkouts can be measured under the same
command.
"""

from __future__ import annotations

import argparse

import sweep
from qent import ProtocolRun, PureState, random_state
from qent.protocol import run_report

SEED = 20240817
POINTS = ((4, "exact-marginal"), (10, "exact-marginal"), (4, "full-joint"))
MIN_TRIALS = 10**4


def _repeats(trials: int) -> int:
    return 7 if trials <= 10**6 else 3


def _row(n: int, mode: str, trials: int) -> dict:
    state = random_state(n, SEED)

    def fresh_run():
        return ProtocolRun(PureState(n, state.amplitudes), trials, SEED + trials, mode)

    run = fresh_run()
    run_report(run)  # warm-up
    repeat = sweep.timed(lambda: run_report(run), _repeats(trials))
    return {"n": n, "mode": mode, "trials": trials,
            **sweep.timed(run_report, _repeats(trials), peak="bytes", setup=fresh_run),
            **{f"repeat_{key}": value for key, value in repeat.items() if key != "calls"}}


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
    sweep.write_section(
        args.out, args.label,
        f"PYTHONPATH=src python3 scripts/bench_sampling.py "
        f"--label {args.label} --max-trials {args.max_trials}",
        run_report=rows)

    for row in rows:
        print(f"n={row['n']:2d} {row['mode']:14s} trials={row['trials']:>9d}  "
              f"median {row['median_s'] * 1e3:9.2f} ms "
              f"(repeat {row['repeat_median_s'] * 1e3:7.2f})  "
              f"peak {row['tracemalloc_peak_bytes'] / 2**20:8.2f} MiB")


if __name__ == "__main__":
    main()
