"""Kernel sweep of the direct route: wedge_distance time and peak memory over n.

Run from the root of the checkout to measure:

    PYTHONPATH=src python3 scripts/bench_direct.py --label after

For n = 8..--max-n it splits a seeded random n-qubit state on qubit 0 and
times REPEATS wedge_distance calls on the two remainder vectors (length
2^(n-1)), then takes the tracemalloc peak of one more call.  Then, for a
kernel with a row-block budget, it repeats the n = 11 point under each budget
in BUDGET_SWEEP, and last it times q_direct at n = 11.  All of it runs in one
process.  The labelled section (with the command, interpreter, numpy version
and host) is merged into --out, keeping the other sections, so two checkouts
can be measured under the same command.
"""

from __future__ import annotations

import argparse

import sweep
from qent import measures, q_direct, random_state, split_on_qubit, wedge_distance

SEED = 20240817
Q_DIRECT_N = 11
REPEATS = 15  # timed calls per point
BUDGET_SWEEP = (1 << 18, 1 << 19, 3 << 18, 1 << 20)  # bytes per row block


def _kernel_row(n: int) -> dict:
    split = split_on_qubit(random_state(n, SEED), 0)
    u, v = split.u_tilde, split.v_tilde
    wedge_distance(u, v)  # warm-up
    return {"n": n, "vector_length": u.size,
            **sweep.timed(lambda: wedge_distance(u, v), REPEATS, peak="bytes")}


def _budget_sweep() -> list[dict]:
    default = getattr(measures, "_WEDGE_BLOCK_BYTES", None)
    if default is None:  # kernel without row blocks
        return []
    rows = []
    try:
        for budget in BUDGET_SWEEP:
            measures._WEDGE_BLOCK_BYTES = budget
            rows.append({"budget_bytes": budget, **_kernel_row(Q_DIRECT_N)})
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
    budgets = _budget_sweep()
    state = random_state(Q_DIRECT_N, SEED)
    q_direct(state)  # warm-up
    q_row = {"n": Q_DIRECT_N, **sweep.timed(lambda: q_direct(state), REPEATS)}
    sweep.write_section(
        args.out, args.label,
        f"PYTHONPATH=src python3 scripts/bench_direct.py --label {args.label} --max-n {args.max_n}",
        wedge_distance=kernel, block_budget_sweep=budgets, q_direct=q_row)

    for row in kernel:
        print(f"n={row['n']:2d}  median {row['median_s'] * 1e3:9.2f} ms  "
              f"peak {row['tracemalloc_peak_bytes'] / 2**20:8.2f} MiB")
    for row in budgets:
        print(f"n={Q_DIRECT_N} budget {row['budget_bytes'] >> 10:5d} KiB  "
              f"median {row['median_s'] * 1e3:9.2f} ms")
    print(f"q_direct n={Q_DIRECT_N}  median {q_row['median_s'] * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
