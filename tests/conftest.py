"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: the
brute-force partial trace and the wedge sum walk basis states and index
pairs with explicit Python loops, the vectorised partial trace contracts
the state tensor with its conjugate by np.tensordot rather than the
library's Gram-matrix kernel, the cluster amplitudes come from expanding the
operator-tagged product form term by term, and pulse matrices are
cross-checked against scipy's expm.  The joint ancilla distribution is
simulated gate by gate on the full 3n-qubit register, not read from the
subset-purity table the samplers use.
"""

import itertools

import numpy as np
import pytest

from qent import PureState, DensityMatrix, apply_unitary
from qent.protocol import _controlled_swaps

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def brute_force_reduced(state: PureState, keep) -> np.ndarray:
    """Partial trace by explicit basis-state bookkeeping (independent oracle)."""
    n = state.n_qubits
    keep = list(keep)
    rest = [q for q in range(n) if q not in keep]
    amps = state.amplitudes

    def assemble(kept_bits, rest_bits):
        idx = 0
        for q, b in zip(keep, kept_bits):
            idx |= b << (n - 1 - q)
        for q, b in zip(rest, rest_bits):
            idx |= b << (n - 1 - q)
        return idx

    dk = 2 ** len(keep)
    rho = np.zeros((dk, dk), dtype=complex)
    kept_basis = list(itertools.product((0, 1), repeat=len(keep)))
    for i, bi in enumerate(kept_basis):
        for j, bj in enumerate(kept_basis):
            for br in itertools.product((0, 1), repeat=len(rest)):
                rho[i, j] += amps[assemble(bi, br)] * np.conj(amps[assemble(bj, br)])
    return rho


def partial_trace(state: PureState, keep) -> np.ndarray:
    """rho_keep, its axes in the order of ``keep``, by contracting the other qubits.

    np.tensordot of the state tensor with its conjugate over the complement:
    fast enough for every subset of small states and the single qubits of
    large ones, where ``brute_force_reduced`` takes seconds.
    """
    keep = list(keep)
    m = len(keep)
    t = np.moveaxis(state.tensor(), keep, range(m))
    rest = range(m, state.n_qubits)
    return np.tensordot(t, t.conj(), axes=(rest, rest)).reshape(2**m, 2**m)


def oracle_purity(state: PureState, keep) -> float:
    """Tr[rho_keep^2] of the ``partial_trace`` oracle, as sum |rho_ij|^2."""
    return float(np.sum(np.abs(partial_trace(state, keep)) ** 2))


def remainders(state: PureState, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Qubit k's remainder vectors: |psi> = |0>_k (x) u + |1>_k (x) v, other qubits in order."""
    t = np.moveaxis(state.tensor(), k, 0)
    return t[0].reshape(-1), t[1].reshape(-1)


def joint_outcome_distribution(state: PureState) -> np.ndarray:
    """Exact joint distribution of the n ancilla bits (index bit j = ancilla j).

    Simulates the full 3n-qubit protocol: ancillas in |+>^n, two copies of
    the state, a c-SWAP per column, then a Hadamard on each ancilla so that
    the computational bit 1 marks the sigma_x minus outcome.
    """
    n = state.n_qubits
    joint = _controlled_swaps(lambda: PureState(n, np.full(2**n, 2 ** (-n / 2))), state, range(n))
    for j in range(n):
        joint = apply_unitary(joint, _HADAMARD, [j])
    weights = np.abs(joint.tensor()) ** 2
    probs = weights.sum(axis=tuple(range(n, 3 * n))).reshape(-1)
    return probs / probs.sum()


def brute_force_wedge(u, v) -> float:
    """sum_{i<j} |u_i v_j - u_j v_i|^2 by an explicit double loop (independent oracle)."""
    total = 0.0
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            total += abs(u[i] * v[j] - u[j] * v[i]) ** 2
    return total


class _NumpyUnreachable:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} was reached before the qubit-count check")


@pytest.fixture
def no_state_numpy(monkeypatch):
    """Fail on any numpy use inside qent.states: proves a check runs before allocating."""
    from qent import states

    monkeypatch.setattr(states, "np", _NumpyUnreachable())


def cluster_product_expansion(n: int) -> np.ndarray:
    """Expand the product form where a sigma_z on qubit a+1 tags each |0>_a.

    Term by term: choosing bit b_a from factor a contributes, when b_a = 0,
    a sign (-1)**b_{a+1} from the tagged sigma_z (the tag on the last factor
    is the identity).
    """
    amps = np.zeros(2**n, dtype=complex)
    for bits in itertools.product((0, 1), repeat=n):
        sign = 1.0
        for a in range(n - 1):
            if bits[a] == 0 and bits[a + 1] == 1:
                sign = -sign
        idx = sum(b << (n - 1 - k) for k, b in enumerate(bits))
        amps[idx] = sign * 2 ** (-n / 2)
    return amps


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return DensityMatrix(dim, w / np.trace(w))


def bell_pair() -> PureState:
    return PureState(2, np.array([1, 0, 0, 1]) / np.sqrt(2))


def bell_bell() -> PureState:
    b = bell_pair().amplitudes
    return PureState(4, np.kron(b, b))


# file bodies that are not state files, each for a different reason
MALFORMED_FILES = {
    "not-json": b"{oops",
    "missing-key": b'{"n_qubits": 1}',
    "string-amplitude": b'{"n_qubits": 1, "amplitudes": [["1", 0], [0, 0]]}',
    "null-amplitude": b'{"n_qubits": 1, "amplitudes": [[null, 0], [0, 0]]}',
    "short-pair": b'{"n_qubits": 1, "amplitudes": [[1], [0, 0]]}',
    "long-pair": b'{"n_qubits": 1, "amplitudes": [[1, 0, 0], [0, 0]]}',
    "not-utf-8": b'{"n_qubits": 1, "note": "\xe9", "amplitudes": [[1, 0], [0, 0]]}',
    "byte-order-mark": b'\xef\xbb\xbf{"n_qubits": 1, "amplitudes": [[1, 0], [0, 0]]}',
    # an integer literal too large for a float
    "huge-integer": b'{"n_qubits": 1, "amplitudes": [[1' + b"0" * 400 + b', 0], [0, 0]]}',
}
