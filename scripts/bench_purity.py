"""Purity-layer sweep: purity routes, the full-joint distribution and the circuit oracle over n.

Run from the root of each checkout to measure and compare:

    PYTHONPATH=src python3 scripts/bench_purity.py --label before --save p_before.npz
    PYTHONPATH=src python3 scripts/bench_purity.py --label after --reference p_before.npz

For each n in 4..--max-n it times q_purity and minus_probabilities on a
seeded random state (median of several calls, fewer at the largest sizes)
and takes the tracemalloc peak of one call of each.  For each n in
2..--max-joint-n it does the same for a full-joint tally_outcomes run of
1000 trials, whose cost is that of the joint ancilla distribution; an n the
checkout's ProtocolRun rejects is recorded with the error and ends that
sweep.  For each n >= 2 and subset size m whose register of m + 2n qubits
fits CIRCUIT_MAX_QUBITS, it times subset_purity_circuit on the first m
qubits of a seeded random state and records the largest difference from
subset_purity_exact over every subset of size m.  A state remembers the
purities computed on it, so each timed purity call gets a fresh copy of the
state, built outside the timed region; the ``_repeat`` columns time a second
call on one state, which reads them back.  --save writes the per-qubit p(-)
vectors and the circuit purities to an .npz file; --reference reads such a
file and records the largest difference from it for every row, so a second
checkout can be checked for the same output.  The labelled section (with the
command, interpreter, numpy version and host) is merged into --out, keeping
the other sections.
"""

from __future__ import annotations

import argparse
import itertools
from pathlib import Path

import numpy as np

import sweep
from qent import (
    ProtocolRun,
    PureState,
    minus_probabilities,
    q_purity,
    random_state,
    subset_purity_circuit,
    subset_purity_exact,
    tally_outcomes,
)
from qent.protocol import CIRCUIT_MAX_QUBITS, JOINT_MODE_MAX_QUBITS, MODE_FULL_JOINT

MIN_N = 4
MIN_JOINT_N = 2
JOINT_TRIALS = 1000
MIN_CIRCUIT_N = 2


def _repeats(n: int) -> int:
    return 21 if n <= 12 else (7 if n <= 16 else 3)


def _fresh(state: PureState):
    """A setup for sweep.timed: a new copy of ``state``, with nothing remembered."""
    return lambda: PureState(state.n_qubits, state.amplitudes)


def _timed_fresh_and_repeat(row: dict, name: str, fn, make, repeats: int) -> None:
    """Time ``fn`` on fresh inputs as ``name``, and on one reused input as ``name``_repeat."""
    row[name] = sweep.timed(fn, repeats, peak="mib", setup=make)
    warm = make()
    fn(warm)
    row[f"{name}_repeat"] = sweep.timed(lambda: fn(warm), repeats)


def _purity_row(n: int, reference) -> tuple[dict, np.ndarray]:
    state = random_state(n, n)
    row = {"n": n}
    for name, fn in (("q_purity", q_purity), ("minus_probabilities", minus_probabilities)):
        _timed_fresh_and_repeat(row, name, fn, _fresh(state), _repeats(n))
    p_minus = minus_probabilities(_fresh(state)())
    if reference is not None:
        row["max_abs_diff_vs_reference"] = float(np.max(np.abs(p_minus - reference[f"n{n}"])))
    return row, p_minus


def _joint_row(n: int) -> dict:
    state = random_state(n, 100 + n)
    try:
        ProtocolRun(state, JOINT_TRIALS, 0, MODE_FULL_JOINT)
    except ValueError as exc:
        return {"n": n, "error": str(exc)}
    row = {"n": n}
    copy = _fresh(state)
    _timed_fresh_and_repeat(row, "tally_outcomes", tally_outcomes,
                            lambda: ProtocolRun(copy(), JOINT_TRIALS, 0, MODE_FULL_JOINT),
                            11 if n <= 8 else 3)
    return row


def _circuit_row(n: int, m: int, reference) -> tuple[dict, np.ndarray]:
    state = random_state(n, 200 + n)
    row = {"n": n, "m": m, "qubits": m + 2 * n}
    row["subset_purity_circuit"] = sweep.timed(
        lambda: subset_purity_circuit(state, range(m)), 7, peak="mib"
    )
    subsets = list(itertools.combinations(range(n), m))
    circuit = np.array([subset_purity_circuit(state, s) for s in subsets])
    exact = np.array([subset_purity_exact(state, s) for s in subsets])
    row["max_abs_diff_vs_exact"] = float(np.max(np.abs(circuit - exact)))
    if reference is not None:
        row["max_abs_diff_vs_reference"] = float(
            np.max(np.abs(circuit - reference[f"circuit_n{n}_m{m}"]))
        )
    return row, circuit


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="Section name, e.g. before or after.")
    parser.add_argument("--max-n", type=int, default=20, help="Largest n of the purity sweep.")
    parser.add_argument("--max-joint-n", type=int, default=JOINT_MODE_MAX_QUBITS + 1,
                        help="Largest n of the full-joint sweep (default: one past the cap).")
    parser.add_argument("--save", default=None, help="Write the p(-) vectors to this .npz file.")
    parser.add_argument("--reference", default=None,
                        help="Compare against p(-) vectors saved by --save in another checkout.")
    parser.add_argument("--out", default="BENCH_purity.json")
    args = parser.parse_args()

    reference = np.load(args.reference) if args.reference else None
    purity_rows, saved = [], {}
    for n in range(MIN_N, args.max_n + 1):
        row, saved[f"n{n}"] = _purity_row(n, reference)
        purity_rows.append(row)
        print(f"n={n:2d}  q_purity {row['q_purity']['median_s'] * 1e3:9.3f} ms "
              f"(repeat {row['q_purity_repeat']['median_s'] * 1e3:7.3f})  "
              f"minus_probabilities {row['minus_probabilities']['median_s'] * 1e3:9.3f} ms "
              f"(repeat {row['minus_probabilities_repeat']['median_s'] * 1e3:7.3f})  "
              f"diff vs reference {row.get('max_abs_diff_vs_reference', '-')}", flush=True)
    circuit_rows = []
    for n in range(MIN_CIRCUIT_N, (CIRCUIT_MAX_QUBITS - 1) // 2 + 1):
        for m in range(1, min(n, CIRCUIT_MAX_QUBITS - 2 * n) + 1):
            row, saved[f"circuit_n{n}_m{m}"] = _circuit_row(n, m, reference)
            circuit_rows.append(row)
            print(f"circuit n={n} m={m}  subset_purity_circuit "
                  f"{row['subset_purity_circuit']['median_s'] * 1e3:8.3f} ms  "
                  f"diff vs exact {row['max_abs_diff_vs_exact']:.2e}  "
                  f"diff vs reference {row.get('max_abs_diff_vs_reference', '-')}", flush=True)
    if args.save:
        np.savez(args.save, **saved)
    joint_rows = []
    for n in range(MIN_JOINT_N, args.max_joint_n + 1):
        row = _joint_row(n)
        joint_rows.append(row)
        if "error" in row:
            print(f"joint n={n:2d}  rejected: {row['error']}", flush=True)
            break
        print(f"joint n={n:2d}  tally_outcomes {row['tally_outcomes']['median_s'] * 1e3:9.3f} ms"
              f" (repeat {row['tally_outcomes_repeat']['median_s'] * 1e3:7.3f})"
              f"  peak {row['tally_outcomes']['tracemalloc_peak_mib']:.2f} MiB", flush=True)

    command = f"PYTHONPATH=src python3 scripts/bench_purity.py --label {args.label}"
    command += f" --max-n {args.max_n} --max-joint-n {args.max_joint_n}"
    if args.reference:
        command += f" --reference {Path(args.reference).name}"
    sweep.write_section(args.out, args.label, command, purity=purity_rows, full_joint=joint_rows,
                        circuit=circuit_rows)


if __name__ == "__main__":
    main()
