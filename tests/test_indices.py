"""One rule per kind of input, each written once in ``qent.states``.

An index, count or size is a Python int, a numpy integer or an integral float
(``states._integer``); a fraction, a bool or a string is rejected with a
ValueError at every entry point instead of being truncated or failing later
with a TypeError.  Every qubit cap raises through ``states._check_cap``, and
no other module writes a cap message or its own finiteness test.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import qent
from qent import (
    DensityMatrix,
    IsingCoupling,
    ProtocolRun,
    PureState,
    Rotation,
    apply_unitary,
    canonical_cswap,
    canonical_swap,
    cluster_state,
    cswap_sequence,
    ghz_state,
    q_direct,
    random_product_state,
    random_state,
    schmidt_spectrum,
    sequence_unitary,
    subset_purities,
    subset_purity_circuit,
    subset_purity_exact,
    swap_sequence,
    three_body_sequence,
    w_state,
    zzz_unitary,
)
from qent.measures import DIRECT_MAX_QUBITS
from qent.protocol import FULL_JOINT_MAX_QUBITS, JOINT_MODE_MAX_QUBITS, MODE_FULL_JOINT
from qent.pulses import UNITARY_MAX_QUBITS
from qent.states import MAX_QUBITS

STATE = ghz_state(3)
X = np.array([[0, 1], [1, 0]], dtype=complex)

# each takes one qubit index q, with its other targets 0 and 2 of a 3-qubit register
ENTRY_POINTS = {
    "subset_purities": lambda q: subset_purities(STATE, [[q]]),
    "subset_purity_exact": lambda q: subset_purity_exact(STATE, [q]),
    "subset_purity_circuit": lambda q: subset_purity_circuit(STATE, [q]),
    "schmidt_spectrum": lambda q: schmidt_spectrum(STATE, [q]),
    "apply_unitary": lambda q: apply_unitary(STATE, X, [q]),
    "canonical_swap": lambda q: canonical_swap(q, 2, 3),
    "canonical_cswap": lambda q: canonical_cswap(0, q, 2, 3),
    "zzz_unitary": lambda q: zzz_unitary(0.3, 0, q, 2, 3),
    "swap_sequence": lambda q: swap_sequence(q, 2),
    "three_body_sequence": lambda q: three_body_sequence(0.3, 0, q, 2),
    "cswap_sequence": lambda q: cswap_sequence(0, q, 2),
    "Rotation": lambda q: Rotation("x", 0.1, q),
    "IsingCoupling": lambda q: IsingCoupling(0.1, (q, 2)),
}
BAD = [0.5, True, "1", np.float32(1.5), np.bool_(True)]
BAD_IDS = ["half", "bool", "str", "float32-half", "numpy-bool"]

FACTORIES = {
    "ghz_state": ghz_state,
    "w_state": w_state,
    "cluster_state": cluster_state,
    "random_state": lambda n: random_state(n, 7),
    "random_product_state": lambda n: random_product_state(n, 7),
    "PureState": lambda n: PureState(n, STATE.amplitudes),
}

# each takes a size: a 3-qubit register, or the dimension 2 of a density matrix
SIZES = {
    "canonical_swap": (lambda r: canonical_swap(0, 2, r), 3, "register_size"),
    "canonical_cswap": (lambda r: canonical_cswap(0, 1, 2, r), 3, "register_size"),
    "zzz_unitary": (lambda r: zzz_unitary(0.3, 0, 1, 2, r), 3, "register_size"),
    "DensityMatrix": (lambda d: DensityMatrix(d, np.eye(2) / 2), 2, "dim"),
}

# each builds a register one qubit past the cap it names; none allocates first
CAPS = {
    "MAX_QUBITS": (lambda: ghz_state(MAX_QUBITS + 1), MAX_QUBITS),
    "UNITARY_MAX_QUBITS": (
        lambda: sequence_unitary(swap_sequence(0, UNITARY_MAX_QUBITS)), UNITARY_MAX_QUBITS
    ),
    "DIRECT_MAX_QUBITS": (lambda: q_direct(ghz_state(DIRECT_MAX_QUBITS + 1)), DIRECT_MAX_QUBITS),
    "JOINT_MODE_MAX_QUBITS": (
        lambda: ProtocolRun(ghz_state(JOINT_MODE_MAX_QUBITS + 1), 10, 0, MODE_FULL_JOINT),
        JOINT_MODE_MAX_QUBITS,
    ),
    # one control qubit and two copies of 7 qubits
    "FULL_JOINT_MAX_QUBITS": (
        lambda: subset_purity_circuit(ghz_state(7), [0]), FULL_JOINT_MAX_QUBITS
    ),
}


def assert_same(a, b):
    """Equal values of equal types, field by field; arrays bit for bit."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for field in dataclasses.fields(a):
            assert_same(getattr(a, field.name), getattr(b, field.name))
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    else:
        assert a == b


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_integer_index_rejected(entry, bad):
    with pytest.raises(ValueError, match="must be an integer"):
        ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("index", [1.0, np.float32(1.0), np.int64(1)], ids=str)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_integral_index_equals_int(entry, index):
    assert_same(ENTRY_POINTS[entry](index), ENTRY_POINTS[entry](1))


@pytest.mark.parametrize("bad", [2.5, True, "3"], ids=["half", "bool", "str"])
@pytest.mark.parametrize("factory", FACTORIES)
def test_non_integer_count_rejected(factory, bad):
    with pytest.raises(ValueError, match="qubit count must be an integer"):
        FACTORIES[factory](bad)


@pytest.mark.parametrize("count", [3.0, np.int64(3)], ids=str)
@pytest.mark.parametrize("factory", FACTORIES)
def test_integral_count_becomes_int(factory, count):
    state = FACTORIES[factory](count)
    assert type(state.n_qubits) is int
    assert_same(state, FACTORIES[factory](3))


@pytest.mark.parametrize("bad", ["3", None, True], ids=["str", "none", "bool"])
@pytest.mark.parametrize("entry", SIZES)
def test_non_integer_size_rejected(entry, bad):
    build, _, field = SIZES[entry]
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        build(bad)


@pytest.mark.parametrize("entry", SIZES)
def test_integral_float_size_equals_int(entry):
    build, size, _ = SIZES[entry]
    assert_same(build(float(size)), build(size))


@pytest.mark.parametrize("name", CAPS)
def test_caps_share_one_message(name):
    build, cap = CAPS[name]
    shape = rf"^.+ on {cap + 1} qubits exceeds the cap of {name} = {cap} \(.+\)$"
    with pytest.raises(ValueError, match=shape):
        build()


@pytest.mark.parametrize("module", sorted(Path(qent.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_input_rules_live_in_states(module):
    text = module.read_text()
    if module.name == "states.py":
        assert text.count("exceeds the cap") == 1
    else:
        for rule in ("exceeds the cap", "math.isfinite", "numbers.Real"):
            assert rule not in text, f"{module.name} writes its own {rule!r} rule"
