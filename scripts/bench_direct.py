"""Kernel sweep of the direct route: wedge_distance and q_direct time and peak memory over n.

Run from the root of the checkout to measure:

    PYTHONPATH=src python3 scripts/bench_direct.py --label after

For n = 8..--max-n it splits a seeded random n-qubit state on qubit 0 and
times REPEATS wedge_distance calls on the two remainder vectors (length
2^(n-1)); for n = 4..--max-n it times REPEATS q_direct calls on the whole
state.  Every row takes the tracemalloc peak of one more call and records
the process CPU time over the wall time of its timed calls, which exceeds 1
when BLAS runs worker threads.  Then, for a kernel with a row-block budget,
it repeats the q_direct points at BUDGET_SWEEP_N under each budget in
BUDGET_SWEEP.  All of it runs in one process.  The labelled section (with
the command, interpreter, numpy version and host) is merged into --out,
keeping the other sections, so two checkouts can be measured under the same
command.
"""

from __future__ import annotations

import argparse

import sweep
from qent import measures, q_direct, random_state, wedge_distance

SEED = 20240817
REPEATS = 15  # timed calls per point
BUDGET_SWEEP = (1 << 18, 1 << 19, 3 << 18, 1 << 20)  # bytes per row block
BUDGET_SWEEP_N = (8, 11, 13)


def _timed(fn) -> dict:
    fn()  # warm-up
    return sweep.timed(fn, REPEATS, peak="bytes", cpu=True)


def _kernel_row(n: int) -> dict:
    # qubit 0's remainder vectors are the two halves of the amplitude vector
    u, v = random_state(n, SEED).amplitudes.reshape(2, -1)
    return {"n": n, "vector_length": u.size, **_timed(lambda: wedge_distance(u, v))}


def _q_direct_row(n: int) -> dict:
    state = random_state(n, SEED)
    return {"n": n, **_timed(lambda: q_direct(state))}


def _budget_sweep() -> list[dict]:
    default = getattr(measures, "_WEDGE_BLOCK_BYTES", None)
    if default is None:  # kernel without row blocks
        return []
    rows = []
    try:
        for n in BUDGET_SWEEP_N:
            for budget in BUDGET_SWEEP:
                measures._WEDGE_BLOCK_BYTES = budget
                rows.append({"budget_bytes": budget, **_q_direct_row(n)})
    finally:
        measures._WEDGE_BLOCK_BYTES = default
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="Section name, e.g. before or after.")
    parser.add_argument("--max-n", type=int, default=14, help="Largest qubit count swept.")
    parser.add_argument("--out", default="BENCH_direct.json")
    args = parser.parse_args()

    kernel = [_kernel_row(n) for n in range(8, args.max_n + 1)]
    direct = [_q_direct_row(n) for n in range(4, args.max_n + 1)]
    budgets = _budget_sweep()
    sweep.write_section(
        args.out, args.label,
        f"PYTHONPATH=src python3 scripts/bench_direct.py --label {args.label} --max-n {args.max_n}",
        wedge_distance=kernel, q_direct=direct, block_budget_sweep=budgets)

    for name, rows in (("wedge_distance", kernel), ("q_direct", direct)):
        for row in rows:
            print(f"{name:14s} n={row['n']:2d}  median {row['median_s'] * 1e3:9.3f} ms  "
                  f"cpu/wall {row['cpu_over_wall']:.2f}  "
                  f"peak {row['tracemalloc_peak_bytes'] / 2**20:6.2f} MiB")
    for row in budgets:
        print(f"q_direct n={row['n']:2d} budget {row['budget_bytes'] >> 10:5d} KiB  "
              f"median {row['median_s'] * 1e3:9.3f} ms  cpu/wall {row['cpu_over_wall']:.2f}")


if __name__ == "__main__":
    main()
