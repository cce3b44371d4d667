"""Meyer-Wallach global entanglement Q by two independent routes.

The direct route projects the state on each qubit k,

    |psi> = |0>_k (x) |u~> + |1>_k (x) |v~>,

and sums the squared wedge-product norm of the two (unnormalized) remainder
vectors, which are the two halves of the middle axis of the amplitudes viewed
as (2^k, 2, 2^(n-k-1)),

    D(u, v) = sum_{i<j} |u_i v_j - u_j v_i|^2,
    Q = (4/n) sum_k D_k.

The purity route uses Q = 2 (1 - mean_k Tr[rho_k^2]).  Both are exposed so
each can serve as an oracle for the other.  D is evaluated from the pairwise
terms themselves, never from the Lagrange identity
D = <u|u><v|v> - |<u|v>|^2, which the tests use as an independent check.

wedge_distance takes one vector pair or a stack of m pairs along the last
axis and returns D for each; q_direct passes it the remainders of several
qubits at once.  Its one kernel, _wedge_sum, forms the pair terms as the
matrix C = u v^T - v u^T, which is antisymmetric with a zero diagonal.  Its
real and imaginary parts come from one real product with inner size 4: row
i of the left operand holds the float views of [conj(u_i), -conj(v_i)] and
of i times it, that is [u_r, -u_i, -v_r, v_i] and [u_i, u_r, -v_i, -v_r],
and column j of the right operand holds [v_r, v_i, u_r, u_i], so the two
products are exactly Re C_ij and Im C_ij.  The kernel walks the rows in
blocks [a, b) sized to a fixed byte budget and forms only C[a:b, a:] of
every pair in the stack, by one np.matmul per block: the rectangle
C[a:b, b:] holds only pairs with i < j and adds its full squared norm, and
the square C[a:b, a:b] counts each of its i<j terms twice and adds half its
squared norm.  No pair with j < a is formed, so the work is about half of
the full matrix.  Every block is formed in one budget-sized buffer
allocated once per call; the right operand takes 32 B per vector entry and
grows with the length, and each block's rows of the left operand are formed
next to it.  Time grows as length^2, i.e. as 4^n for the remainder vectors
of an n-qubit state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import PureState, _check_cap, _finite, check_subset, subset_purities

# singular values below this count as numerical noise, not Schmidt rank
SCHMIDT_RANK_TOL = 1e-8
# largest state the direct route accepts: its time grows as 4^n, about 20 s
# per q_direct at n = 16, 16 times the n = 14 point of BENCH_direct.json
DIRECT_MAX_QUBITS = 16
# bytes of one row block of pair terms in _wedge_sum, 16 B (Re and Im) per
# pair; q_direct also keeps each stack it passes (32 B per remainder entry)
# and the kernel's right operand (32 B more) within it up to n = 14, where
# one qubit fills it; past that they grow with 2^n (budget sweep at n = 8,
# 11 and 13: BENCH_direct.json)
_WEDGE_BLOCK_BYTES = 1 << 19
# row i of _wedge_sum's left operand, [u_r, -u_i, -v_r, v_i] then
# [u_i, u_r, -v_i, -v_r], as rows of its right operand [v_r, v_i, u_r, u_i]
# and their signs
_LEFT_ROWS = np.array([2, 3, 0, 1, 3, 2, 1, 0])
_LEFT_SIGNS = np.array([1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0])[:, None]


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Schmidt coefficients across a bipartition, sorted descending."""

    coefficients: np.ndarray

    def squared(self) -> np.ndarray:
        return self.coefficients**2


def wedge_distance(u: Sequence, v: Sequence) -> float | np.ndarray:
    """Generalized cross product sum_{i<j} |u_i v_j - u_j v_i|^2.

    ``u`` and ``v`` hold one vector each, or stacks of vectors along their
    last axis: a float comes back for one pair, and an array of one value
    per pair, in the stack's shape, for a stack.
    """
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    if u.shape != v.shape:
        raise ValueError(f"vector shapes differ: {u.shape} vs {v.shape}")
    if u.size < 1:
        raise ValueError("vectors must be nonempty")
    # the largest modulus, not the squared norm, which overflows for finite
    # entries above 1e154 whose wedge sum may still be finite
    _finite(float(np.max(np.abs(u))), "max |u_i|")
    _finite(float(np.max(np.abs(v))), "max |v_i|")
    size = u.shape[-1]
    d = _wedge_sum(u.reshape(-1, size), v.reshape(-1, size))
    return float(d[0]) if u.ndim == 1 else d.reshape(u.shape[:-1])


def _wedge_sum(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """sum_{i<j} |u_ki v_kj - u_kj v_ki|^2 for each row pair k of two (m, L) arrays."""
    m, size = us.shape
    # column j of each pair's right operand is [v_r, v_i, u_r, u_i]
    rhs = np.empty((m, 4, size))
    rhs[:, 0], rhs[:, 1], rhs[:, 2], rhs[:, 3] = vs.real, vs.imag, us.real, us.imag
    rows = min(size, max(1, _WEDGE_BLOCK_BYTES // (16 * m * size)))
    # one block of pair terms, 16 B (Re and Im) per pair, and its rows of the
    # left operand, reused by every row block
    buf = np.empty(2 * m * rows * size)
    left = np.empty((m, rows, 8))
    total = np.zeros(m)
    for a in range(0, size, rows):
        b = min(a + rows, size)
        lhs = left[:, : b - a]
        np.multiply(rhs[:, _LEFT_ROWS, a:b], _LEFT_SIGNS, out=lhs.transpose(0, 2, 1))
        block = buf[: 2 * m * (b - a) * (size - a)].reshape(m, 2 * (b - a), size - a)
        # at most 8 * rows * size <= budget / 2 multiply-adds per pair, which
        # OpenBLAS runs on the calling thread (cpu_over_wall, BENCH_direct.json)
        np.matmul(lhs.reshape(m, 2 * (b - a), 4), rhs[:, :, a:], out=block)
        # the square C[a:b, a:b] leads each block row; it is antisymmetric with
        # a zero diagonal, so half of its squared norm comes from pairs with i < j.
        # Each row is summed on its own, as one sum over a whole block drifts by
        # over 10 ulp of Q at n = 6.  These are numpy's own reductions, not
        # np.vdot: OpenBLAS splits a dot over more than 10^4 entries across its
        # threads, which stall on a loaded machine
        square = block[:, :, : b - a]
        norms = np.einsum("kij,kij->ki", block, block)
        norms -= 0.5 * np.einsum("kij,kij->ki", square, square)
        total += np.add.reduce(norms, axis=1)
    return total


def q_direct(state: PureState) -> float:
    """Q from the projection splits: (4/n) sum_k D(u~_k, v~_k)."""
    n = _check_measurable(state)
    _check_cap("direct route", n, "DIRECT_MAX_QUBITS", DIRECT_MAX_QUBITS,
               "it takes O(4^n) time; use q_purity (--route purity)")
    half = 2 ** (n - 1)
    # as many qubits per call as keep the stack and the kernel's right operand
    # (64 B per remainder entry) within the block budget
    group = max(1, _WEDGE_BLOCK_BYTES // (64 * half))
    total = 0.0
    for g in range(0, n, group):
        qubits = range(g, min(g + group, n))
        pairs = np.empty((2, len(qubits), half), dtype=complex)
        for row, k in enumerate(qubits):
            # qubit k's remainders are the two halves of the middle axis
            pairs[:, row].reshape(2, 2**k, -1)[...] = (
                state.amplitudes.reshape(2**k, 2, -1).transpose(1, 0, 2))
        total += np.add.reduce(wedge_distance(pairs[0], pairs[1]))
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
