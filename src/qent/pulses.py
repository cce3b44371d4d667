"""Pulse sequences over single-qubit rotations and two-qubit Ising couplings.

Sign conventions (fixed package-wide, no hidden normalization):

* ``Rotation(axis, angle, qubit)`` is the unitary exp(+i * angle * sigma_axis).
* ``IsingCoupling(angle, (a, b))`` is exp(+i * angle * sigma_z^a sigma_z^b).
* A ``PulseSequence`` lists pulses in application order: the first element
  acts on the state first, i.e. it is the rightmost factor of the
  corresponding operator product.

Under these conventions the three sequences built here reproduce their
canonical gates exactly up to a global phase (the SWAP construction carries
e^{i pi/4}, the c-SWAP carries e^{-i pi/8}; the three-body construction is
exact), which ``phase_aligned_deviation`` measures.  The c-SWAP sequence is
the SWAP sequence with each coupling replaced by its controlled
counterpart, itself built on the three-body construction.  Scalar phase
prefactors are not stored as pulses, but the e^{-i pi/8 sigma_z} factor on
the control qubit of the c-SWAP is a physical pulse and is kept.

Matrix realization: one private kernel, ``_apply_pulses``, applies a pulse
list to an array whose leading axis spans the register, a state vector or the
running product; ``sequence_unitary`` is that kernel applied to the identity.
It builds every pulse's factor once, before its loop: the stack of 2x2
matrices cos(angle) I + sin(angle) i sigma_axis of all rotations, and the
phases exp(+i angle Z_a Z_b) of all couplings.  Then each pulse is one numpy
call, O(2^r) per column on r qubits.  A coupling on (a, b), a < b,
multiplies the array viewed as (2^a, 2, 2^(b-a-1), 2, rest) in place by its
phases, exp(+i angle) where the two qubit axes agree and exp(-i angle) where
they differ; a rotation is one 2x2 step on the array viewed as (2^q, 2,
rest), written into a second buffer that then swaps places with the first.
Every dense unitary built here, the product and the canonical gates, is
refused above ``UNITARY_MAX_QUBITS`` = 13 qubits before it is allocated;
a ``PulseSequence`` itself may span any register.  Indices and sizes follow
``states._integer``; angles, phi and g follow ``states._finite``, so a bool,
string, None, complex or non-finite value raises ValueError.

Interaction-time accounting: the coupling hardware evolves under
H = g sigma_z sigma_z, so a time t >= 0 realizes exp(-i g t ZZ).  With fixed
g > 0 a pulse exp(+i theta ZZ) therefore costs ((-theta) mod 2pi)/g; if the
sign of g is tunable the cheaper direction min(theta mod 2pi,
(-theta) mod 2pi)/|g| is used.  Single-qubit pulses cost no interaction
time.  Exploiting the pi-periodicity of ZZ evolution up to global phase
would allow cheaper schedules; that is deliberately not done, so the account
matches the straightforward per-pulse costs 27pi/(4g) and 9pi/(4|g|) for the
c-SWAP sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .states import (MalformedInput, _bits, _check_cap, _check_targets, _encode_json, _finite,
                     _integer, _parse_json, _real)

AXES = ("x", "y", "z")
# i sigma_axis for each axis of AXES, in that order
_GENERATORS = 1j * np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# Z_a Z_b on the qubit axes of the (2^a, 2, 2^(b-a-1), 2, rest) view of a product
_ZZ = np.array([[1.0, -1.0], [-1.0, 1.0]]).reshape(2, 1, 2, 1)
# largest register of a dense unitary: one 2^13 x 2^13 complex matrix is 1 GiB,
# as is the amplitude vector at states.MAX_QUBITS
UNITARY_MAX_QUBITS = 13
_DENSE_WHY = "its 4**n matrix entries take 2**(2n + 4) bytes"


def _dense(what: str, targets, register_size) -> tuple[int, tuple[int, ...]]:
    """The register size and targets of a dense gate, refused above UNITARY_MAX_QUBITS."""
    size = _integer(register_size, "register_size")
    _check_cap(what, size, "UNITARY_MAX_QUBITS", UNITARY_MAX_QUBITS, _DENSE_WHY)
    return size, _check_targets(what, targets, size)


@dataclass(frozen=True)
class Rotation:
    """Single-qubit pulse exp(+i * angle * sigma_axis) on ``qubit``."""

    axis: str
    angle: float
    qubit: int

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        _finite(self.angle, "angle")
        object.__setattr__(self, "qubit", _integer(self.qubit, "qubit"))


@dataclass(frozen=True)
class IsingCoupling:
    """Two-qubit pulse exp(+i * angle * sigma_z sigma_z) on ``qubits``."""

    angle: float
    qubits: tuple[int, int]

    def __post_init__(self):
        a, b = (_integer(q, "qubits") for q in self.qubits)
        if a == b:
            raise ValueError(f"Ising coupling needs two distinct qubits, got {self.qubits}")
        _finite(self.angle, "angle")
        object.__setattr__(self, "qubits", (a, b))


Pulse = Union[Rotation, IsingCoupling]


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulses (first applied first) over ``register_size`` qubits.

    Every pulse must be a ``Rotation`` or an ``IsingCoupling`` and every
    target must lie in the register; the pulses themselves do not check their
    range.
    """

    pulses: tuple[Pulse, ...]
    register_size: int

    def __post_init__(self):
        pulses = tuple(self.pulses)
        object.__setattr__(self, "pulses", pulses)
        size = _integer(self.register_size, "register_size")
        object.__setattr__(self, "register_size", size)
        # the pulses hold their qubits as ints, a coupling's two distinct, so
        # the range of all targets is the whole check; a pulse of another type
        # or a target out of range is checked, and reported, pulse by pulse
        rotated = [p.qubit for p in pulses if type(p) is Rotation]
        targets = [q for p in pulses if type(p) is IsingCoupling for q in p.qubits]
        typed = len(rotated) + len(targets) // 2 == len(pulses)
        targets += rotated
        if not (typed and min(targets, default=0) >= 0 and max(targets, default=0) < size):
            for p in pulses:
                if not isinstance(p, (Rotation, IsingCoupling)):
                    raise ValueError(f"pulse {p!r} is not a Rotation or an IsingCoupling")
                _check_targets("pulse", (p.qubit,) if isinstance(p, Rotation) else p.qubits, size)


@dataclass(frozen=True)
class CouplingModel:
    """Finite Ising coupling strength g > 0 (radians per unit time); ``sign_tunable`` a bool."""

    g: float
    sign_tunable: bool = False

    def __post_init__(self):
        if not _finite(self.g, "coupling strength g") > 0:
            raise ValueError(f"coupling strength g must be > 0, got {self.g}")
        if not isinstance(self.sign_tunable, (bool, np.bool_)):
            raise ValueError(f"sign_tunable must be a bool, got {self.sign_tunable!r}")


# ---------------------------------------------------------------------------
# matrix realization


def sequence_unitary(seq: PulseSequence) -> np.ndarray:
    """Ordered product of the pulse unitaries (first pulse rightmost); see "Matrix realization"."""
    if not seq.pulses:
        raise ValueError("pulse sequence is empty")
    _check_cap("sequence unitary", seq.register_size, "UNITARY_MAX_QUBITS", UNITARY_MAX_QUBITS,
               _DENSE_WHY)
    return _apply_pulses(np.eye(2**seq.register_size, dtype=complex), seq.pulses)


def _apply_pulses(arr: np.ndarray, pulses) -> np.ndarray:
    """The pulses applied in order to ``arr``, whose leading axis spans the register.

    ``arr`` is a (2^r,) state vector or a (2^r, 2^r) running product, and is
    overwritten; the result is ``arr`` itself or a buffer of its shape.  Every
    factor is built before the loop, so each pulse is one numpy call.
    """
    rotations = [p for p in pulses if isinstance(p, Rotation)]
    couplings = [p for p in pulses if not isinstance(p, Rotation)]
    # cos(angle) I + sin(angle) i sigma_axis, and exp(i angle Z_a Z_b) on the qubit axes
    angles = np.array([p.angle for p in rotations])[:, None, None]
    generators = _GENERATORS[[AXES.index(p.axis) for p in rotations]]
    local = np.cos(angles) * np.eye(2) + np.sin(angles) * generators
    phase = np.exp(1j * np.array([p.angle for p in couplings])[:, None, None, None, None] * _ZZ)
    spare = np.empty_like(arr) if rotations else None
    local, phase = iter(local), iter(phase)
    for p in pulses:
        if isinstance(p, Rotation):
            shape = (2**p.qubit, 2, -1)
            np.matmul(next(local), arr.reshape(shape), out=spare.reshape(shape))
            arr, spare = spare, arr
        else:
            a, b = sorted(p.qubits)
            view = arr.reshape(2**a, 2, 2 ** (b - a - 1), 2, -1)
            np.multiply(view, next(phase), out=view)
    return arr


# ---------------------------------------------------------------------------
# sequence constructors


def swap_sequence(t: int, s: int) -> PulseSequence:
    """SWAP(t, s) from three Ising couplings conjugated by x/y rotations.

    Realizes e^{-i pi/4 (XX+YY+ZZ)} = e^{-i pi/4} SWAP; the scalar phase is
    not tracked.  Each paired rotation e^{i a (sigma_t + sigma_s)} is stored
    as its two commuting single-qubit pulses.
    """
    t, s = _check_targets("SWAP", (t, s))
    return PulseSequence(tuple(_swap_pulses(t, s)), max(t, s) + 1)


def _swap_pulses(t: int, s: int) -> list[Pulse]:
    q = math.pi / 4
    return [
        IsingCoupling(-q, (t, s)),
        Rotation("x", -q, t), Rotation("x", -q, s),
        IsingCoupling(-q, (t, s)),
        Rotation("x", q, t), Rotation("x", q, s),
        Rotation("y", -q, t), Rotation("y", -q, s),
        IsingCoupling(-q, (t, s)),
        Rotation("y", q, t), Rotation("y", q, s),
    ]


def _three_body_pulses(phi: float, c: int, t: int, s: int) -> list[Pulse]:
    q = math.pi / 4
    return [
        Rotation("y", q, t),
        Rotation("x", q, t),
        Rotation("y", math.pi / 2, c),
        IsingCoupling(q, (c, t)),
        Rotation("x", -q, t),
        Rotation("y", -q, c),
        IsingCoupling(-phi, (t, s)),
        Rotation("x", q, t),
        Rotation("y", q, c),
        IsingCoupling(-q, (c, t)),
        Rotation("x", -q, t),
        Rotation("y", -q, t),
        Rotation("y", -math.pi / 2, c),
    ]


def three_body_sequence(phi: float, c: int, t: int, s: int) -> PulseSequence:
    """exp(+i phi Z_c Z_t Z_s) from couplings on (c,t) and (t,s) only.

    A conjugation built from Rotation/IsingCoupling pulses maps the central
    exp(-i phi Z_t Z_s) coupling onto the three-body generator; the identity
    is exact (no global phase).
    """
    phi = _finite(phi, "phi")
    c, t, s = _check_targets("three-body", (c, t, s))
    return PulseSequence(tuple(_three_body_pulses(phi, c, t, s)), max(c, t, s) + 1)


def cswap_sequence(c: int, t: int, s: int) -> PulseSequence:
    """Controlled-SWAP (control c) with three-body factors expanded inline.

    Each Ising coupling of the SWAP sequence on (t, s) is replaced by its
    controlled counterpart e^{-i pi/8 Z_t Z_s} e^{+i pi/8 Z_c Z_t Z_s}, and a
    z pulse on the control supplies the conditional phase.  All couplings act
    on the pairs (c, t) and (t, s) only.  Equals the canonical gate up to a
    global phase of e^{-i pi/8}.
    """
    c, t, s = _check_targets("c-SWAP", (c, t, s))
    e = math.pi / 8
    pulses = []
    for p in _swap_pulses(t, s):
        if isinstance(p, IsingCoupling):
            pulses += [*_three_body_pulses(e, c, t, s), IsingCoupling(-e, (t, s))]
        else:
            pulses.append(p)
    pulses.append(Rotation("z", -e, c))
    return PulseSequence(tuple(pulses), max(c, t, s) + 1)


# ---------------------------------------------------------------------------
# accounting and comparison


def interaction_time(seq: PulseSequence, model: CouplingModel) -> float:
    """Total two-qubit interaction time (see module docstring for the rule)."""
    two_pi = 2 * math.pi
    total = 0.0
    for p in seq.pulses:
        if not isinstance(p, IsingCoupling):
            continue
        backward = (-p.angle) % two_pi
        if model.sign_tunable:
            total += min(p.angle % two_pi, backward)
        else:
            total += backward
    return total / model.g


def phase_aligned_deviation(u: np.ndarray, v: np.ndarray) -> float:
    """max |u - e^{-i alpha} v| with alpha the phase of Tr(u^dag v).

    u equals v up to global phase when this is < tol, the rule ``qent verify`` applies.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"shapes differ: {u.shape} vs {v.shape}")
    tr = np.vdot(u, v)  # Tr(u^dag v)
    if abs(tr) < 1e-15:
        return float(np.max(np.abs(u - v)))
    return float(np.max(np.abs(u - v * (abs(tr) / tr))))


# ---------------------------------------------------------------------------
# canonical gates (verification targets)


def canonical_swap(t: int, s: int, register_size: int) -> np.ndarray:
    register_size, (t, s) = _dense("canonical SWAP", (t, s), register_size)
    dim = 2**register_size
    idx = np.arange(dim)
    u = np.zeros((dim, dim), dtype=complex)
    u[idx.reshape([2] * register_size).swapaxes(t, s).reshape(-1), idx] = 1.0
    return u


def canonical_cswap(c: int, t: int, s: int, register_size: int) -> np.ndarray:
    register_size, (c, t, s) = _dense("canonical c-SWAP", (c, t, s), register_size)
    dim = 2**register_size
    idx = np.arange(dim)
    swapped = idx.reshape([2] * register_size).swapaxes(t, s).reshape(-1)
    out = np.where(_bits(idx, register_size)[:, c], swapped, idx)
    u = np.zeros((dim, dim), dtype=complex)
    u[out, idx] = 1.0
    return u


def zzz_unitary(phi: float, c: int, t: int, s: int, register_size: int) -> np.ndarray:
    """exp(+i phi Z_c Z_t Z_s): diagonal phases by parity of the three bits."""
    phi = _finite(phi, "phi")
    register_size, cols = _dense("three-body unitary", (c, t, s), register_size)
    odd = np.logical_xor.reduce(_bits(np.arange(2**register_size), register_size)[:, cols], axis=1)
    return np.diag(np.exp(1j * phi * np.where(odd, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# JSON export: ordered pulse array, each {kind, axis?, angle, targets}


def sequence_to_dict(seq: PulseSequence) -> dict:
    pulses = []
    for p in seq.pulses:
        if isinstance(p, Rotation):
            pulses.append(
                {"kind": "rotation", "axis": p.axis, "angle": p.angle, "targets": [p.qubit]}
            )
        else:
            pulses.append({"kind": "ising", "angle": p.angle, "targets": list(p.qubits)})
    return {"register_size": seq.register_size, "pulses": pulses}


def sequence_from_dict(doc: dict) -> PulseSequence:
    """The pulse sequence a parsed sequence document describes.

    Raises ``states.MalformedInput`` on a document of another shape (a
    missing key, an unknown pulse kind, a wrong number of targets, an index
    that is not an integer, an angle that is not a real number or that
    overflows a float) and a plain ValueError on a sequence that fails
    validation, such as a target outside the register.
    """
    try:
        fields = []
        for entry in doc["pulses"]:
            if entry["kind"] not in ("rotation", "ising"):
                raise ValueError(f"unknown pulse kind {entry['kind']!r}")
            targets = [_integer(t, "targets") for t in entry["targets"]]
            angle = float(_real(entry["angle"], "angle"))
            if entry["kind"] == "rotation":
                (target,) = targets
                fields.append((Rotation, (entry["axis"], angle, target)))
            else:
                a, b = targets
                fields.append((IsingCoupling, (angle, (a, b))))
        size = _integer(doc["register_size"], "register_size")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"malformed sequence document: {exc}") from exc
    return PulseSequence(tuple(pulse(*args) for pulse, args in fields), size)


def save_sequence(seq: PulseSequence, path: str | Path) -> None:
    Path(path).write_bytes(_encode_json(sequence_to_dict(seq)))


def load_sequence(path: str | Path) -> PulseSequence:
    """Read a sequence file.

    Raises OSError if the file cannot be read, ``states.MalformedInput`` if it
    does not parse as the sequence format, and ValueError if the sequence it
    holds is invalid.
    """
    try:
        doc = _parse_json(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"malformed sequence file {path}: {exc}") from exc
    return sequence_from_dict(doc)
