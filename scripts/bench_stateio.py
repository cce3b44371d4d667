"""State-file sweep: writing and reading state files, in-process and through the CLI, over n.

Run from the root of each checkout to measure and compare:

    PYTHONPATH=src python3 scripts/bench_stateio.py --label before
    PYTHONPATH=src python3 scripts/bench_stateio.py --label after

For each n in N_VALUES it writes a seeded random n-qubit state with
save_state and reads it back with load_state, taking the median of several
calls of each and the tracemalloc peak of one more (tracemalloc sees only
what goes through Python's allocator).  Then it runs ``qent gen random`` and
``qent q --route purity`` on the same n as ``python3 -m qent.cli``
subprocesses of the checkout's ``src`` and takes their median wall times,
interpreter start-up included.  The labelled section (with the command,
interpreter, numpy version and host) is merged into --out, keeping the other
sections, so two checkouts can be measured under the same command.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import sweep
from qent import load_state, random_state, save_state

SEED = 20240817
N_VALUES = (10, 12, 14, 16, 18)


def _repeats(n: int) -> int:
    return 9 if n <= 14 else (5 if n <= 16 else 3)


def _in_process_row(n: int, path: Path) -> dict:
    state = random_state(n, SEED)
    repeats = _repeats(n)
    save = sweep.timed(lambda: save_state(state, path), repeats, peak="bytes")
    load = sweep.timed(lambda: load_state(path), repeats, peak="bytes")
    if not np.array_equal(load_state(path).amplitudes, state.amplitudes):
        raise RuntimeError(f"n = {n}: the state file does not read back to the state written")
    return {"n": n, "file_bytes": path.stat().st_size, "save_state": save, "load_state": load}


def _cli_row(n: int, work: Path, env: dict) -> dict:
    path = work / f"r{n}.json"

    def run(*args):
        subprocess.run([sys.executable, "-m", "qent.cli", *args], cwd=work, env=env,
                       check=True, stdout=subprocess.DEVNULL)

    repeats = _repeats(n)
    gen = sweep.timed(lambda: run("gen", "random", "--n", str(n), "--seed", str(SEED),
                             "--out", str(path)), repeats)
    q = sweep.timed(lambda: run("q", str(path), "--route", "purity"), repeats)
    return {"n": n, "gen_random": gen, "q_purity": q}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="Section name, e.g. before or after.")
    parser.add_argument("--out", default="BENCH_stateio.json")
    args = parser.parse_args()

    env = {**os.environ, "PYTHONPATH": str(Path("src").resolve())}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        in_process = [_in_process_row(n, work / f"s{n}.json") for n in N_VALUES]
        cli = [_cli_row(n, work, env) for n in N_VALUES]
    sweep.write_section(args.out, args.label,
                        f"PYTHONPATH=src python3 scripts/bench_stateio.py --label {args.label}",
                        in_process=in_process, cli=cli)

    for row, cli_row in zip(in_process, cli):
        print(f"n={row['n']:2d}  {row['file_bytes'] / 2**20:7.2f} MiB  "
              f"save {row['save_state']['median_s'] * 1e3:8.1f} ms  "
              f"load {row['load_state']['median_s'] * 1e3:8.1f} ms  "
              f"gen {cli_row['gen_random']['median_s'] * 1e3:8.1f} ms  "
              f"q {cli_row['q_purity']['median_s'] * 1e3:8.1f} ms")


if __name__ == "__main__":
    main()
