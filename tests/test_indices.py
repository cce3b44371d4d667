"""One integer rule for every qubit index and count (``states._qubit_count``).

An index is a Python int, a numpy integer or an integral float; a fraction, a
bool or a string is rejected with a ValueError at every entry point instead of
being truncated or failing later with a TypeError.
"""

import dataclasses

import numpy as np
import pytest

from qent import (
    IsingCoupling,
    PureState,
    Rotation,
    apply_unitary,
    canonical_cswap,
    canonical_swap,
    cluster_state,
    cswap_sequence,
    ghz_state,
    random_product_state,
    random_state,
    reduced_density,
    schmidt_spectrum,
    split_on_qubit,
    subset_purities,
    subset_purity_circuit,
    subset_purity_exact,
    swap_sequence,
    three_body_sequence,
    w_state,
    zzz_unitary,
)

STATE = ghz_state(3)
X = np.array([[0, 1], [1, 0]], dtype=complex)

# each takes one qubit index q, with its other targets 0 and 2 of a 3-qubit register
ENTRY_POINTS = {
    "reduced_density": lambda q: reduced_density(STATE, [q]),
    "subset_purities": lambda q: subset_purities(STATE, [[q]]),
    "subset_purity_exact": lambda q: subset_purity_exact(STATE, [q]),
    "subset_purity_circuit": lambda q: subset_purity_circuit(STATE, [q]),
    "schmidt_spectrum": lambda q: schmidt_spectrum(STATE, [q]),
    "apply_unitary": lambda q: apply_unitary(STATE, X, [q]),
    "split_on_qubit": lambda q: split_on_qubit(STATE, q),
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
