"""Pulse-layer sweep: sequence_unitary time on the c-SWAP sequence over register sizes.

Run from the root of each checkout to measure and compare:

    PYTHONPATH=src python3 scripts/bench_pulses.py --label before --save u_before.npz
    PYTHONPATH=src python3 scripts/bench_pulses.py --label after --reference u_before.npz

The small-register section times the three gates at their own register
sizes, as a library session builds and checks them: swap_sequence(0, 1),
three_body_sequence(0.3, 0, 1, 2) and cswap_sequence(0, 1, 2), each call
building the sequence, wrapping its pulses again in a PulseSequence and
realizing it with sequence_unitary (median of many calls).  Then, for each
register size r in 3..--max-r, it embeds the 51-pulse c-SWAP sequence on
qubits (0, r // 2, r - 1) of an r-qubit register and times sequence_unitary
on it (median of several calls; one call is timed at the largest sizes,
where a call takes seconds).  --save writes the unitaries to an .npz file;
--reference reads such a file and records the largest elementwise difference
from it for every gate and every r, so a second checkout can be checked for
identical output.  Each row also records the phase-aligned deviation from its
canonical gate.  The labelled section (with the command, interpreter, numpy
version and host) is merged into --out, keeping the other sections.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

import sweep
from qent import (
    PulseSequence,
    canonical_cswap,
    canonical_swap,
    cswap_sequence,
    phase_aligned_deviation,
    sequence_unitary,
    swap_sequence,
    three_body_sequence,
    zzz_unitary,
)

MIN_R = 3
PHI = 0.3
# name: (sequence builder, register size, canonical gate)
GATES = {
    "swap": (lambda: swap_sequence(0, 1), 2, lambda: canonical_swap(0, 1, 2)),
    "three_body": (lambda: three_body_sequence(PHI, 0, 1, 2), 3,
                   lambda: zzz_unitary(PHI, 0, 1, 2, 3)),
    "cswap": (lambda: cswap_sequence(0, 1, 2), 3, lambda: canonical_cswap(0, 1, 2, 3)),
}
GATE_REPEATS = 201


def _repeats(r: int) -> int:
    return 7 if r <= 7 else (3 if r <= 9 else 1)


def _row(r: int, reference) -> tuple[dict, np.ndarray]:
    c, t, s = 0, r // 2, r - 1
    seq = PulseSequence(cswap_sequence(c, t, s).pulses, r)
    last = {}  # the unitary of the last timed call
    row = {"r": r, "targets": [c, t, s], "pulses": len(seq.pulses),
           **sweep.timed(lambda: last.update(u=sequence_unitary(seq)), _repeats(r))}
    u = last["u"]
    row["deviation_from_canonical"] = phase_aligned_deviation(canonical_cswap(c, t, s, r), u)
    if reference is not None:
        row["max_abs_diff_vs_reference"] = float(np.max(np.abs(u - reference[f"r{r}"])))
    return row, u


def _gate_row(name: str, reference) -> tuple[dict, np.ndarray]:
    build, r, canonical = GATES[name]
    last = {}
    row = {"gate": name, "r": r, "pulses": len(build().pulses),
           **sweep.timed(lambda: last.update(
               u=sequence_unitary(PulseSequence(build().pulses, r))), GATE_REPEATS)}
    u = last["u"]
    row["deviation_from_canonical"] = phase_aligned_deviation(canonical(), u)
    if reference is not None:
        row["max_abs_diff_vs_reference"] = float(np.max(np.abs(u - reference[name])))
    return row, u


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="Section name, e.g. before or after.")
    parser.add_argument("--max-r", type=int, default=10, help="Largest register size swept.")
    parser.add_argument("--save", default=None, help="Write the unitaries to this .npz file.")
    parser.add_argument("--reference", default=None,
                        help="Compare against unitaries saved by --save in another checkout.")
    parser.add_argument("--out", default="BENCH_pulses.json")
    args = parser.parse_args()

    reference = np.load(args.reference) if args.reference else None
    gate_rows, unitaries = [], {}
    for name in GATES:
        row, unitaries[name] = _gate_row(name, reference)
        gate_rows.append(row)
        print(f"{name:10s}  median {row['median_s'] * 1e6:10.1f} us  "
              f"diff vs reference {row.get('max_abs_diff_vs_reference', '-')}", flush=True)
    rows = []
    for r in range(MIN_R, args.max_r + 1):
        row, unitaries[f"r{r}"] = _row(r, reference)
        rows.append(row)
        print(f"r={r:2d}  median {row['median_s'] * 1e3:10.2f} ms  "
              f"diff vs reference {row.get('max_abs_diff_vs_reference', '-')}", flush=True)
    if args.save:
        np.savez(args.save, **unitaries)

    command = f"PYTHONPATH=src python3 scripts/bench_pulses.py --label {args.label}"
    command += f" --max-r {args.max_r}"
    if args.reference:
        command += f" --reference {Path(args.reference).name}"
    sweep.write_section(args.out, args.label, command, small_registers=gate_rows,
                        sequence_unitary=rows)


if __name__ == "__main__":
    main()
