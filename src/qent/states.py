"""Dense state-vector and density-matrix kernel.

Qubit ordering convention (global to this package): qubit 0 is the leftmost
ket label and the most significant bit of the amplitude index, so the basis
state |b_0 b_1 ... b_{n-1}> sits at index sum_k b_k * 2**(n-1-k).  This
matches ``amplitudes.reshape([2] * n)`` with axis k belonging to qubit k.

States and matrices are validated on construction and frozen afterwards
(read-only numpy buffers); every operation returns a fresh object.  The
tolerance checks are written as ``not deviation <= tol`` so that a NaN
entry fails them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

NORM_ATOL = 1e-10
HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
UNITARY_ATOL = 1e-9
# partial traces of normalized states can carry tiny negative eigenvalues
EIGENVALUE_FLOOR = -1e-9
# largest register a state may have: the amplitude vector alone is 1 GiB here
MAX_QUBITS = 26


def _frozen_complex_array(data, shape) -> np.ndarray:
    arr = np.array(data, dtype=complex).reshape(shape)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over ``n_qubits`` qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        # before 2**n_qubits, which a huge count turns into a huge integer
        if self.n_qubits > MAX_QUBITS:
            raise ValueError(
                f"n_qubits = {self.n_qubits} exceeds the cap of MAX_QUBITS = {MAX_QUBITS}"
            )
        amps = _frozen_complex_array(self.amplitudes, -1)
        if amps.size != 2**self.n_qubits:
            raise ValueError(
                f"amplitude vector has length {amps.size}, "
                f"expected 2**{self.n_qubits} = {2**self.n_qubits}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_ATOL}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per qubit (read-only view)."""
        return self.amplitudes.reshape([2] * self.n_qubits)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one matrix."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        mat = _frozen_complex_array(self.entries, (self.dim, self.dim))
        dev = np.max(np.abs(mat - mat.conj().T))
        if not dev <= HERMITIAN_ATOL:
            raise ValueError(f"matrix deviates from Hermitian by {dev:.3e}")
        tr = np.trace(mat)
        if not abs(tr - 1.0) <= TRACE_ATOL:
            raise ValueError(f"trace {tr!r} deviates from 1 beyond {TRACE_ATOL}")
        lo = float(np.min(np.linalg.eigvalsh(mat)))
        if lo < EIGENVALUE_FLOOR:
            raise ValueError(f"matrix has eigenvalue {lo:.3e} below {EIGENVALUE_FLOOR}")
        object.__setattr__(self, "entries", mat)


def check_subset(indices: Sequence[int], n_qubits: int) -> tuple[int, ...]:
    """Validate a qubit subset: nonempty, strictly increasing, in range."""
    subset = tuple(int(i) for i in indices)
    if not subset:
        raise ValueError("qubit subset must be nonempty")
    if any(b <= a for a, b in zip(subset, subset[1:])):
        raise ValueError(f"qubit subset {subset} must be strictly increasing")
    if subset[0] < 0 or subset[-1] >= n_qubits:
        raise ValueError(f"qubit subset {subset} out of range for {n_qubits} qubits")
    return subset


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > UNITARY_ATOL:
        raise ValueError(f"matrix deviates from unitarity by {dev:.3e}")
    return u


# ---------------------------------------------------------------------------
# state factories


def _check_qubit_count(n: int, minimum: int, family: str) -> None:
    """Reject n outside [minimum, MAX_QUBITS]; factories call it before allocating."""
    if n < minimum:
        raise ValueError(f"{family} needs n >= {minimum} qubits, got {n}")
    if n > MAX_QUBITS:
        raise ValueError(
            f"{family} with {n} qubits exceeds the cap of MAX_QUBITS = {MAX_QUBITS} "
            f"(its amplitude vector alone would take 2**{n + 4} bytes)"
        )


def product_state(factors: Iterable[Sequence[complex]]) -> PureState:
    """Tensor product of normalized single-qubit states, qubit 0 leftmost."""
    factors = list(factors)
    _check_qubit_count(len(factors), 1, "product state")
    factors = [np.asarray(f, dtype=complex).reshape(-1) for f in factors]
    amps = np.array([1.0], dtype=complex)
    for k, f in enumerate(factors):
        if f.size != 2:
            raise ValueError(f"factor {k} has length {f.size}, expected 2")
        if not abs(np.linalg.norm(f) - 1.0) <= NORM_ATOL:
            raise ValueError(f"factor {k} is not normalized")
        amps = np.kron(amps, f)
    return PureState(len(factors), amps)


def ghz_state(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    _check_qubit_count(n, 2, "GHZ state")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return PureState(n, amps)


def w_state(n: int) -> PureState:
    """Equal superposition of the n one-hot basis states."""
    _check_qubit_count(n, 2, "W state")
    amps = np.zeros(2**n, dtype=complex)
    amps[[2**k for k in range(n)]] = 1 / np.sqrt(n)
    return PureState(n, amps)


def cluster_state(n: int) -> PureState:
    """Linear cluster (graph) state: |+>^n with controlled-Z on neighbors.

    Amplitude of |b> is 2**(-n/2) * (-1)**(number of adjacent 1-pairs).
    The product form often quoted for this state, with a sigma_z tagging the
    |0> component of each factor, yields the same state only after sigma_z on
    qubits 1..n-1; the two differ by that local unitary and share all
    entanglement properties.  This package uses the controlled-Z form.
    """
    _check_qubit_count(n, 2, "cluster state")
    idx = np.arange(2**n)
    amps = np.full(2**n, 2 ** (-n / 2), dtype=complex)
    for a in range(n - 1):
        left = (idx >> (n - 1 - a)) & 1
        right = (idx >> (n - 2 - a)) & 1
        amps[(left & right) == 1] *= -1.0
    return PureState(n, amps)


def random_state(n: int, rng: np.random.Generator | int | None = None) -> PureState:
    """Haar-like random state: rotation-invariant complex Gaussian, normalized."""
    _check_qubit_count(n, 1, "random state")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    z = gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n)
    return PureState(n, z / np.linalg.norm(z))


def random_product_state(n: int, rng: np.random.Generator | int | None = None) -> PureState:
    """Product of independent random single-qubit states."""
    _check_qubit_count(n, 1, "random product state")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    factors = []
    for _ in range(n):
        z = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        factors.append(z / np.linalg.norm(z))
    return product_state(factors)


# ---------------------------------------------------------------------------
# operations


def apply_unitary(state: PureState, u: np.ndarray, targets: Sequence[int]) -> PureState:
    """Apply ``u`` on the listed target qubits, identity elsewhere.

    Matrix axes follow the listed target order; targets must be distinct and
    in range (any order).
    """
    targets = [int(t) for t in targets]
    if len(set(targets)) != len(targets):
        raise ValueError(f"targets {targets} contain duplicates")
    if not targets or min(targets) < 0 or max(targets) >= state.n_qubits:
        raise ValueError(f"targets {targets} invalid for {state.n_qubits} qubits")
    u = _check_unitary(u)
    m = len(targets)
    if u.shape[0] != 2**m:
        raise ValueError(f"unitary dim {u.shape[0]} != 2**{m} for {m} targets")
    return PureState(state.n_qubits, _contract(u, state.tensor(), targets).reshape(-1))


def _contract(u: np.ndarray, tensor: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Contract the 2**m x 2**m matrix ``u`` into the listed axes of ``tensor``.

    Axes follow the listed target order; other axes, including any trailing
    non-qubit axis, pass through.  No checks: callers validate.
    """
    m = len(targets)
    t = np.moveaxis(tensor, targets, range(m))
    t = np.tensordot(u.reshape([2] * (2 * m)), t, axes=(range(m, 2 * m), range(m)))
    return np.moveaxis(t, range(m), targets)


def reduced_density(state: PureState, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace over the complement of ``keep``."""
    keep = check_subset(keep, state.n_qubits)
    rest = [q for q in range(state.n_qubits) if q not in keep]
    m = np.transpose(state.tensor(), list(keep) + rest).reshape(2 ** len(keep), -1)
    return DensityMatrix(2 ** len(keep), m @ m.conj().T)


def purity(rho: DensityMatrix) -> float:
    """Tr[rho^2]; 1 for pure states, 1/dim for maximally mixed."""
    # Hermitian rho: Tr[rho^2] = sum |rho_ij|^2, manifestly real
    return float(np.sum(np.abs(rho.entries) ** 2))


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


# ---------------------------------------------------------------------------
# state file format: {"n_qubits": n, "amplitudes": [[re, im], ...]}


def state_to_dict(state: PureState) -> dict:
    return {
        "n_qubits": state.n_qubits,
        "amplitudes": state.amplitudes.view(float).reshape(-1, 2).tolist(),
    }


def _qubit_count(value, field: str = "n_qubits") -> int:
    """An integer count or index field, such as n_qubits; a bool or a fraction is malformed."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def state_from_dict(doc: dict) -> PureState:
    try:
        n = _qubit_count(doc["n_qubits"])
        pairs = doc["amplitudes"]
        amps = np.array([complex(re, im) for re, im in pairs])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    return PureState(n, amps)


def save_state(state: PureState, path: str | Path) -> None:
    Path(path).write_text(json.dumps(state_to_dict(state)) + "\n")


def load_state(path: str | Path) -> PureState:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed state file {path}: {exc}") from exc
    return state_from_dict(doc)
