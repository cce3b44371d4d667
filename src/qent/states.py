"""Dense state-vector and density-matrix kernel.

Qubit ordering convention (global to this package): qubit 0 is the leftmost
ket label and the most significant bit of the amplitude index, so the basis
state |b_0 b_1 ... b_{n-1}> sits at index sum_k b_k * 2**(n-1-k).  This
matches ``amplitudes.reshape([2] * n)`` with axis k belonging to qubit k.
Two private helpers hold this order for the whole package: ``_bits`` (basis
indices to qubit bits) and ``_subset_index`` (qubit subsets to basis
indices).  The one rule for each kind of input lives here too: ``_integer``
for qubit indices, counts and sizes, ``_real`` and ``_finite`` for real
numbers, ``_check_targets`` for targets and ``_check_cap`` for qubit caps.

States and matrices are validated on construction and frozen afterwards
(read-only numpy buffers); every operation returns a fresh object.  The
tolerance checks are written as ``not deviation <= tol`` so that a NaN
entry fails them.  The density checks (Hermitian, unit trace, eigenvalue
floor) run in ``DensityMatrix`` only: ``subset_purities``, which every
purity route reads, computes purities from the validated amplitudes and
checks nothing more.  Because a state's amplitudes never change, each
``PureState`` keeps a private memo of the subset purities computed on it:
``subset_purities`` computes a subset once per state object, and every
later request for it, from any route, is a lookup.

This module is the only one that knows the state-file format,
``{"n_qubits": n, "amplitudes": [[re, im], ...]}``.  Files are written
compact, with every float in its shortest round-trip form, and read back
bit-identically; both directions go through orjson, which is imported by the
file codec only.  Any JSON file is read: the ``NaN`` and ``Infinity`` tokens
that orjson rejects are parsed by the standard ``json`` module, and the state
they give fails validation as an invalid state.  Parse and structure errors
raise ``MalformedInput``; a well-formed file whose state fails validation
raises a plain ``ValueError``.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# bounds |<psi|psi> - 1|, which is also the trace of every reduced state of
# psi; rounding can put that trace just beyond TRACE_ATOL, so DensityMatrix
# can reject a reduced state of a state at this bound, and no route builds one
NORM_ATOL = 1e-10
HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
UNITARY_ATOL = 1e-9
# partial traces of normalized states can carry tiny negative eigenvalues
EIGENVALUE_FLOOR = -1e-9
# largest register a state may have: the amplitude vector alone is 1 GiB here
MAX_QUBITS = 26
# bytes of the transposed amplitude copies and their conjugates that one
# chunk of subset_purities holds; the 462 size-6 subsets of an n = 12 table
# in one chunk would hold about 60 MiB of them, and as much again in Grams
_STACK_BYTES = 1 << 22
# deepest bracket nesting that load_state hands to orjson: orjson 3.8 parses
# nested arrays by recursion on the native stack with no limit, and with an
# 8 MiB stack it crashed the process at 2 * 10^5 levels, where json raises
# RecursionError; a state file nests three deep
_ORJSON_MAX_DEPTH = 1024
_NOT_BRACKETS = bytes(range(256)).translate(None, b"[]{}")
# a JSON string literal, or an unterminated one running to the end of the
# data; every match succeeds without backtracking, so removing them all is
# linear in the length of the data
_JSON_STRINGS = re.compile(rb'"(?:[^"\\]|\\.)*(?:"|\\?\Z)', re.DOTALL)


class MalformedInput(ValueError):
    """A state file or document that does not parse as the state format."""


def _frozen_complex_array(data, shape) -> np.ndarray:
    arr = np.array(data, dtype=complex).reshape(shape)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over ``n_qubits`` qubits.

    ``_purities``, set here and not a field, is the memo of ``subset_purities``:
    subset tuple to Tr[rho_S^2].
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _check_qubit_count(self.n_qubits, 1, "state"))
        amps = _frozen_complex_array(self.amplitudes, -1)
        if amps.size != 2**self.n_qubits:
            raise ValueError(
                f"amplitude vector has length {amps.size}, "
                f"expected 2**{self.n_qubits} = {2**self.n_qubits}"
            )
        norm2 = _norm2(amps)
        if not abs(norm2 - 1.0) <= NORM_ATOL:
            raise ValueError(f"state squared norm {norm2!r} deviates from 1 beyond {NORM_ATOL}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "_purities", {})

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per qubit (read-only view)."""
        return self.amplitudes.reshape([2] * self.n_qubits)


def _norm2(amps: np.ndarray) -> float:
    """Squared 2-norm of a C-contiguous complex vector, summed on the calling thread.

    ``np.vdot`` and ``np.linalg.norm`` hand the sum to BLAS, which splits a
    vector of 10^4 or more entries across threads and spends far longer
    starting them than summing: 8 and 16 ms at n = 16 on a 2-vCPU host,
    against 0.06 ms here.
    """
    flat = amps.view(float)
    return float(np.einsum("i,i->", flat, flat))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one matrix."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dim"))
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        mat = _frozen_complex_array(self.entries, (self.dim, self.dim))
        dev = np.abs(mat - mat.conj().T).max()
        if not dev <= HERMITIAN_ATOL:
            raise ValueError(f"matrix deviates from Hermitian by {dev:.3e}")
        tr = mat.trace()
        if not abs(tr - 1.0) <= TRACE_ATOL:
            raise ValueError(f"trace {tr!r} deviates from 1 beyond {TRACE_ATOL}")
        lo = np.linalg.eigvalsh(mat)[0]
        if lo < EIGENVALUE_FLOOR:
            raise ValueError(f"matrix has eigenvalue {lo:.3e} below {EIGENVALUE_FLOOR}")
        object.__setattr__(self, "entries", mat)


def _integer(value, what: str = "n_qubits") -> int:
    """An int from an int, a numpy integer or an integral float only; else ValueError."""
    if type(value) is int:
        return value
    if isinstance(value, (float, np.integer, np.floating)) and value % 1 == 0:
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _real(value, what: str):
    """``value`` if it is a real number; a bool, str, None or complex raises ValueError."""
    # plain floats first: a library session builds dozens of pulses
    if type(value) is float or (
        isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    ):
        return value
    raise ValueError(f"{what} must be a real number, got {value!r}")


def _finite(value, what: str):
    """``value`` if it is a finite real number (see ``_real``); else ValueError."""
    if math.isfinite(_real(value, what)):
        return value
    raise ValueError(f"{what} must be finite, got {value!r}")


def _check_cap(what: str, qubits: int, name: str, cap: int, why: str) -> None:
    """The one cap check: ``what`` on more than ``cap`` = ``name`` qubits raises ValueError."""
    if qubits > cap:
        raise ValueError(f"{what} on {qubits} qubits exceeds the cap of {name} = {cap} ({why})")


def check_subset(indices: Sequence[int], n_qubits: int) -> tuple[int, ...]:
    """Validate a qubit subset: the targets of ``_check_targets``, strictly increasing."""
    subset = _check_targets("qubit subset", indices, n_qubits)
    if any(b <= a for a, b in zip(subset, subset[1:])):
        raise ValueError(f"qubit subset {subset} must be strictly increasing")
    return subset


def _check_targets(what: str, targets: Sequence[int], n: int | None = None) -> tuple[int, ...]:
    """The target qubits of an operation on n qubits as ints, nonempty, distinct and in range.

    Without n the register is the smallest that holds the targets.
    """
    field = what + " target"
    targets = tuple([_integer(t, field) for t in targets])
    if n is None:
        n = max(targets, default=-1) + 1
    if len(set(targets)) != len(targets):
        problem = "targets contain duplicates"
    elif not targets or min(targets) < 0 or max(targets) >= n:
        problem = f"targets must be nonempty and lie in [0, {n})"
    else:
        return targets
    raise ValueError(f"{what} targets {targets} invalid for a {n}-qubit register: {problem}")


def _bits(indices: np.ndarray, n: int) -> np.ndarray:
    """Boolean (len(indices), n) table of basis indices; column q is qubit q's bit."""
    return (indices[:, np.newaxis] >> np.arange(n - 1, -1, -1) & 1).astype(bool)


def _subset_index(subsets: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """Basis index of each subset: the state with just the subset's qubits set to 1."""
    return (1 << (n - 1 - np.array(subsets))).sum(axis=1)


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


def _check_qubit_count(n: int, minimum: int, family: str) -> int:
    """n as an int in [minimum, MAX_QUBITS]; states and factories call it before allocating."""
    n = _integer(n, f"{family} qubit count")
    if n < minimum:
        raise ValueError(f"{family} needs n >= {minimum} qubits, got {n}")
    _check_cap(family, n, "MAX_QUBITS", MAX_QUBITS, "its 2**n amplitudes take 2**(n + 4) bytes")
    return n


def product_state(factors: Iterable[Sequence[complex]]) -> PureState:
    """Tensor product of normalized single-qubit states, qubit 0 leftmost."""
    factors = list(factors)
    _check_qubit_count(len(factors), 1, "product state")
    factors = [np.asarray(f, dtype=complex).reshape(-1) for f in factors]
    amps = np.array([1.0], dtype=complex)
    norms = []
    for k, f in enumerate(factors):
        if f.size != 2:
            raise ValueError(f"factor {k} has length {f.size}, expected 2")
        norms.append(float(np.vdot(f, f).real))
        if not abs(norms[-1] - 1.0) <= NORM_ATOL:
            raise ValueError(f"factor {k} is not normalized")
        amps = np.kron(amps, f)
    # factors each within NORM_ATOL can multiply to a product beyond it
    norm2 = float(np.prod(norms))
    if not abs(norm2 - 1.0) <= NORM_ATOL:
        raise ValueError(
            f"product state squared norm {norm2!r} deviates from 1 beyond {NORM_ATOL}: "
            f"it is the product of the factor squared norms {norms}"
        )
    return PureState(len(factors), amps)


def ghz_state(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    n = _check_qubit_count(n, 2, "GHZ state")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return PureState(n, amps)


def w_state(n: int) -> PureState:
    """Equal superposition of the n one-hot basis states."""
    n = _check_qubit_count(n, 2, "W state")
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
    n = _check_qubit_count(n, 2, "cluster state")
    amps = np.full(2**n, 2 ** (-n / 2), dtype=complex)
    for a in range(n - 1):
        amps.reshape(2**a, 2, 2, -1)[:, 1, 1] *= -1.0
    return PureState(n, amps)


def random_state(n: int, rng: np.random.Generator | int | None = None) -> PureState:
    """Haar-like random state: rotation-invariant complex Gaussian, normalized."""
    n = _check_qubit_count(n, 1, "random state")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    z = gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n)
    return PureState(n, z / np.sqrt(_norm2(z)))


def random_product_state(n: int, rng: np.random.Generator | int | None = None) -> PureState:
    """Product of independent random single-qubit states."""
    n = _check_qubit_count(n, 1, "random product state")
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
    targets = _check_targets("unitary", targets, state.n_qubits)
    u = _check_unitary(u)
    m = len(targets)
    if u.shape[0] != 2**m:
        raise ValueError(f"unitary dim {u.shape[0]} != 2**{m} for {m} targets")
    t = state.tensor()
    t = np.moveaxis(t, targets, range(m))
    t = np.tensordot(u.reshape([2] * (2 * m)), t, axes=(range(m, 2 * m), range(m)))
    t = np.moveaxis(t, range(m), targets)
    return PureState(state.n_qubits, t.reshape(-1))


def purity(rho: DensityMatrix) -> float:
    """Tr[rho^2]; 1 for pure states, 1/dim for maximally mixed."""
    # Hermitian rho: Tr[rho^2] = sum |rho_ij|^2, manifestly real
    return float(np.sum(np.abs(rho.entries) ** 2))


def subset_purities(state: PureState, subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """Tr[rho_S^2] for each of several same-size qubit subsets S, in the order given.

    Every subset is checked on every call, but only those not yet in the
    state's memo are computed, each once however often it is listed.  Single
    qubits are read from strided views of the amplitudes; larger subsets are
    reduced from a (k, d, d) stack of reduced density matrices, taken in
    chunks so that the stack's working memory stays near ``_STACK_BYTES``
    whatever their number.  No density check runs on them: they are Gram
    matrices of a validated state, Hermitian and positive by construction,
    and only ``DensityMatrix`` checks a matrix.  The memo takes the
    purities once every chunk is done, so a call that raises stores nothing.
    A purity does not depend on the stack it was computed in, so the memo
    returns the same bits as a fresh computation, and two threads that race
    on one state at worst compute a subset twice and store the same float.
    The result is a fresh array.
    """
    n = state.n_qubits
    subsets = [check_subset(s, n) for s in subsets]
    if not subsets:
        raise ValueError("subset_purities needs at least one subset")
    m = len(subsets[0])
    if any(len(s) != m for s in subsets):
        sizes = sorted({len(s) for s in subsets})
        raise ValueError(f"subsets must all have one size, got sizes {sizes}")
    memo = state._purities
    new = [s for s in dict.fromkeys(subsets) if s not in memo]
    if new:
        if m == 1:
            values = _qubit_purities(state, [s[0] for s in new])
        else:
            chunk = max(1, _STACK_BYTES // (2 * state.amplitudes.nbytes))
            rhos = (_gram_stack(state, new[i : i + chunk]) for i in range(0, len(new), chunk))
            # Hermitian rho: Tr[rho^2] = sum |rho_ij|^2
            values = np.concatenate([(np.abs(rho) ** 2).reshape(len(rho), -1).sum(axis=1)
                                     for rho in rhos])
        memo.update(zip(new, values.tolist()))
    return np.array([memo[s] for s in subsets])


def _gram_stack(state: PureState, subsets: list[tuple[int, ...]]) -> np.ndarray:
    """rho_S = M_S M_S^dag for each subset, M_S the amplitudes as a (2^|S|, rest) matrix."""
    n, tensor = state.n_qubits, state.tensor()
    d = 2 ** len(subsets[0])
    mats = np.empty((len(subsets), d, 2**n // d), dtype=complex)
    for mat, keep in zip(mats, subsets):
        rest = [q for q in range(n) if q not in keep]
        mat.reshape([2] * n)[...] = tensor.transpose(list(keep) + rest)
    return np.matmul(mats, mats.conj().swapaxes(1, 2))


def _qubit_purities(state: PureState, qubits: list[int]) -> np.ndarray:
    """Tr[rho_q^2] of single qubits, from the entries of rho_q without building it.

    No transposed copy of the amplitude vector is made, which a Gram product
    would need for every qubit.  The diagonals come from halving the weight
    vector |a|^2 once per qubit: its two halves hold qubit 0's two weights,
    and their sum is the weight vector of the remaining qubits, so all n take
    O(2^n) work.  rho_01 of qubit q sums a[:, 0, :] conj(a[:, 1, :]) over the
    amplitudes viewed as (2^q, 2, rest).  The four terms are added in the
    row-major order in which numpy sums the |entries|^2 of a 2x2 matrix, so
    each purity has the bits of that sum.
    """
    amps = state.amplitudes
    diag = np.empty((state.n_qubits, 2))
    weights = amps.real**2 + amps.imag**2
    for q in range(state.n_qubits):
        halves = weights.reshape(2, -1)
        diag[q] = halves.sum(axis=1)
        weights = halves[0] + halves[1]
    conj = amps.conj()
    off = np.empty(len(qubits), dtype=complex)
    for i, q in enumerate(qubits):
        a, c = amps.reshape(2**q, 2, -1), conj.reshape(2**q, 2, -1)
        off[i] = np.einsum("ij,ij->", a[:, 0], c[:, 1])
    d0, d1 = diag[qubits].T
    cross = np.abs(off) ** 2  # |rho_01|^2 = |rho_10|^2
    return d0**2 + cross + cross + d1**2


# ---------------------------------------------------------------------------
# state file format: {"n_qubits": n, "amplitudes": [[re, im], ...]}


def _encode_json(doc) -> bytes:
    """Compact JSON and one newline, floats in shortest round-trip form: every file's encoder."""
    import orjson

    return orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)


def encode_state(state: PureState) -> bytes:
    """The state-file bytes of ``state``."""
    amps = state.amplitudes.view(float).reshape(-1, 2)
    return _encode_json({"n_qubits": state.n_qubits, "amplitudes": amps})


def _bracket_depth(data: bytes) -> int:
    """Deepest nesting of the brackets in ``data`` outside its strings.

    Exact for valid JSON, where every quote outside a string opens one.  On
    other data it is still exact over the valid prefix that a parser reads
    before it fails, so it bounds the depth that any parse reaches.
    """
    unquoted = _JSON_STRINGS.sub(b"", data)
    brackets = np.frombuffer(unquoted.translate(None, _NOT_BRACKETS), dtype=np.uint8)
    # "[" and "{" have bit 1 set, "]" and "}" have it clear
    steps = (brackets & 2).astype(np.int32) - 1
    return int(np.cumsum(steps).max(initial=0))


def _parse_json(data: bytes):
    import orjson

    if _bracket_depth(data) <= _ORJSON_MAX_DEPTH:
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            # orjson is strict RFC 8259; the NaN and Infinity tokens it rejects
            # are read below and left for PureState to reject, and real
            # garbage fails again with json's own message
            pass
    return json.loads(data.decode())


def save_state(state: PureState, path: str | Path) -> None:
    Path(path).write_bytes(encode_state(state))


def load_state(path: str | Path) -> PureState:
    """Read a state file.

    Raises OSError if the file cannot be read, MalformedInput if it does not
    parse as the state format, and ValueError if the state it holds is invalid.
    """
    try:
        doc = _parse_json(Path(path).read_bytes())
        n = _integer(doc["n_qubits"])
        # complex(re, im) rejects string and null amplitudes, which
        # np.array(pairs, dtype=float) would convert to numbers and NaN, and
        # integers too large for a float
        amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise MalformedInput(f"malformed state file {path}: {exc}") from exc
    return PureState(n, amps)
