"""Meyer-Wallach global entanglement Q by two independent routes.

The direct route projects the state on each qubit k,

    |psi> = |0>_k (x) |u~> + |1>_k (x) |v~>,

and sums the squared wedge-product norm of the two (unnormalized) remainder
vectors,

    D(u, v) = sum_{i<j} |u_i v_j - u_j v_i|^2,
    Q = (4/n) sum_k D_k.

The purity route uses Q = 2 (1 - mean_k Tr[rho_k^2]).  Both are exposed so
each can serve as an oracle for the other.  D is evaluated from the pairwise
terms themselves, never from the Lagrange identity
D = <u|u><v|v> - |<u|v>|^2, which the tests use as an independent check.

The pair terms form the matrix C = u v^T - v u^T, which is antisymmetric with
a zero diagonal.  wedge_distance walks its rows in blocks [a, b) sized to a
fixed byte budget and forms only C[a:b, a:]: the rectangle C[a:b, b:] holds
only pairs with i < j and adds its full squared norm, and the square
C[a:b, a:b] counts each of its i<j terms twice and adds half its squared
norm.  No pair with j < a is formed, so the work is about half of the full
matrix.  Every block is formed in two budget-sized buffers allocated once
per call, so memory does not grow with the vector length and no block pays
for a fresh allocation.  Time grows as length^2, i.e. as 4^n for the
remainder vectors of an n-qubit state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import PureState, _check_cap, _check_targets, _finite, check_subset, subset_purities

# singular values below this count as numerical noise, not Schmidt rank
SCHMIDT_RANK_TOL = 1e-8
# largest state the direct route accepts: its time grows as 4^n, about 50 s
# per q_direct at n = 16 by the kernel sweep in BENCH_direct.json
DIRECT_MAX_QUBITS = 16
# bytes of one row block of pair terms in wedge_distance, which holds a block
# and a temporary of this size (budget sweep at n = 11: BENCH_direct.json)
_WEDGE_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True)
class ProjectionSplit:
    """Remainder vectors of a state projected on one qubit's basis."""

    qubit_index: int
    u_tilde: np.ndarray  # qubit k in |0>, length 2**(n-1)
    v_tilde: np.ndarray  # qubit k in |1>


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Schmidt coefficients across a bipartition, sorted descending."""

    coefficients: np.ndarray

    def squared(self) -> np.ndarray:
        return self.coefficients**2


def split_on_qubit(state: PureState, k: int) -> ProjectionSplit:
    """Split |psi> = |0>_k (x) u~ + |1>_k (x) v~ (remaining qubits keep order)."""
    if state.n_qubits < 2:
        raise ValueError("projection split needs at least 2 qubits")
    (k,) = _check_targets("projection split", (k,), state.n_qubits)
    t = np.moveaxis(state.tensor(), k, 0)
    return ProjectionSplit(k, t[0].reshape(-1).copy(), t[1].reshape(-1).copy())


def wedge_distance(u: Sequence[complex], v: Sequence[complex]) -> float:
    """Generalized cross product sum_{i<j} |u_i v_j - u_j v_i|^2."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if u.size != v.size:
        raise ValueError(f"vector lengths differ: {u.size} vs {v.size}")
    if u.size < 1:
        raise ValueError("vectors must be nonempty")
    size = u.size
    rows = min(size, max(1, _WEDGE_BLOCK_BYTES // (u.itemsize * size)))
    # a block and a temporary, reused by every row block
    bufs = np.empty((2, rows * size), dtype=complex)
    total = 0.0
    for a in range(0, size, rows):
        b = min(a + rows, size)
        # the square is antisymmetric with a zero diagonal: half of its
        # squared norm comes from pairs with i < j
        total += 0.5 * _pair_block_norm2(u, v, slice(a, b), slice(a, b), bufs)
        if b < size:
            # every pair in the rectangle right of the square has i < j
            total += _pair_block_norm2(u, v, slice(a, b), slice(b, size), bufs)
    return float(total)


def _pair_block_norm2(u, v, rows: slice, cols: slice, bufs: np.ndarray) -> float:
    """Squared norm of (u v^T - v u^T)[rows, cols], formed in the two buffers."""
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    block, temp = (buf[: shape[0] * shape[1]].reshape(shape) for buf in bufs)
    np.multiply(u[rows, None], v[cols], out=block)
    np.multiply(v[rows, None], u[cols], out=temp)
    block -= temp
    # numpy's own reduction, not np.vdot: OpenBLAS splits a dot over more
    # than 10^4 entries across its threads, and on a loaded machine every such
    # call waits for a worker thread to be scheduled (on 2 vCPUs beside one
    # busy process, lib-session ran 23 ops/s with np.vdot and 71 with this)
    flat = block.view(float)
    return np.einsum("ij,ij->", flat, flat)


def q_direct(state: PureState) -> float:
    """Q from the projection splits: (4/n) sum_k D(u~_k, v~_k)."""
    n = _check_measurable(state)
    _check_cap("direct route", n, "DIRECT_MAX_QUBITS", DIRECT_MAX_QUBITS,
               "it takes O(4^n) time; use q_purity (--route purity)")
    total = sum(
        wedge_distance(s.u_tilde, s.v_tilde)
        for s in (split_on_qubit(state, k) for k in range(n))
    )
    return 4.0 / n * total


def q_purity(state: PureState) -> float:
    """Q from single-qubit purities: 2 (1 - mean_k Tr[rho_k^2])."""
    n = _check_measurable(state)
    mean = np.mean(subset_purities(state, [[k] for k in range(n)]))
    return float(2.0 * (1.0 - mean))


def _check_measurable(state: PureState) -> int:
    # a single qubit leaves no remainder register to project onto
    if state.n_qubits < 2:
        raise ValueError("global entanglement is defined for n >= 2 qubits")
    return state.n_qubits


def schmidt_spectrum(state: PureState, part_a: Sequence[int]) -> SchmidtSpectrum:
    """Singular values of the amplitude matrix across (part_a | complement)."""
    part_a = check_subset(part_a, state.n_qubits)
    if len(part_a) >= state.n_qubits:
        raise ValueError("part_a must be a proper subset of the qubits")
    rest = [q for q in range(state.n_qubits) if q not in part_a]
    m = np.transpose(state.tensor(), list(part_a) + rest).reshape(2 ** len(part_a), -1)
    sv = np.linalg.svd(m, compute_uv=False)
    sv.setflags(write=False)
    return SchmidtSpectrum(sv)


def schmidt_number(state: PureState, part_a: Sequence[int], tol: float = SCHMIDT_RANK_TOL) -> int:
    """Count of Schmidt coefficients above ``tol``, a finite real >= 0, across the cut."""
    if _finite(tol, "tol") < 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    return int(np.sum(schmidt_spectrum(state, part_a).coefficients > tol))
