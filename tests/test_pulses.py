"""Tests for pulse sequences, gate constructions, and time accounting."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qent.pulses import (
    AXES,
    UNITARY_MAX_QUBITS,
    CouplingModel,
    IsingCoupling,
    PulseSequence,
    Rotation,
    canonical_cswap,
    _apply_pulses,
    canonical_swap,
    cswap_sequence,
    interaction_time,
    load_sequence,
    phase_aligned_deviation,
    save_sequence,
    sequence_from_dict,
    sequence_to_dict,
    sequence_unitary,
    swap_sequence,
    three_body_sequence,
    zzz_unitary,
)
from qent.states import MalformedInput, _encode_json, apply_unitary, random_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"x": SX, "y": SY, "z": SZ}


def expm_oracle(pulse, register_size):
    """Independent realization: scipy expm of the embedded generator."""
    if isinstance(pulse, Rotation):
        op = np.array([[1.0]], dtype=complex)
        for q in range(register_size):
            op = np.kron(op, PAULI[pulse.axis] if q == pulse.qubit else np.eye(2))
    else:
        op = np.array([[1.0]], dtype=complex)
        for q in range(register_size):
            op = np.kron(op, SZ if q in pulse.qubits else np.eye(2))
    return expm(1j * pulse.angle * op)


class TestPulseUnitary:
    def test_zero_angle_rotation_is_identity(self):
        u = sequence_unitary(PulseSequence((Rotation("z", 0.0, 0),), 2))
        assert np.allclose(u, np.eye(4))

    def test_ising_pi_is_minus_identity(self):
        # ZZ has eigenvalues +-1, so exp(i pi ZZ) = -1 on both
        u = sequence_unitary(PulseSequence((IsingCoupling(np.pi, (0, 1)),), 2))
        assert np.allclose(u, -np.eye(4), atol=1e-12)

    def test_x_rotation_block_structure(self):
        u = sequence_unitary(PulseSequence((Rotation("x", np.pi / 2, 0),), 2))
        expected = np.kron(expm(1j * np.pi / 2 * SX), np.eye(2))
        assert np.allclose(u, expected, atol=1e-12)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_rotation_matches_expm_oracle(self, axis, rng):
        for _ in range(5):
            angle = float(rng.uniform(-3, 3))
            target = int(rng.integers(0, 3))
            p = Rotation(axis, angle, target)
            u = sequence_unitary(PulseSequence((p,), 3))
            assert np.allclose(u, expm_oracle(p, 3), atol=1e-12)

    def test_ising_matches_expm_oracle(self, rng):
        for pair in ((0, 1), (0, 2), (1, 2)):
            p = IsingCoupling(float(rng.uniform(-3, 3)), pair)
            u = sequence_unitary(PulseSequence((p,), 3))
            assert np.allclose(u, expm_oracle(p, 3), atol=1e-12)

    def test_rejects_out_of_register_targets(self):
        with pytest.raises(ValueError):
            sequence_unitary(PulseSequence((Rotation("x", 0.1, 2),), 2))
        with pytest.raises(ValueError):
            sequence_unitary(PulseSequence((IsingCoupling(0.1, (0, 3)),), 3))

    _RANGE = "targets must be nonempty and lie in"

    @pytest.mark.parametrize("pulses, r, message", [
        ((Rotation("x", 0.1, 2),), 2, f"pulse targets (2,) invalid for a 2-qubit register: "
                                      f"{_RANGE} [0, 2)"),
        ((Rotation("x", 0.1, -1),), 2, f"pulse targets (-1,) invalid for a 2-qubit register: "
                                       f"{_RANGE} [0, 2)"),
        ((Rotation("x", 0.1, 0), IsingCoupling(0.1, (3, 0))), 3,
         f"pulse targets (3, 0) invalid for a 3-qubit register: {_RANGE} [0, 3)"),
        ((IsingCoupling(0.1, (-1, 1)), Rotation("y", 0.2, 5)), 3,
         f"pulse targets (-1, 1) invalid for a 3-qubit register: {_RANGE} [0, 3)"),
    ], ids=["rotation-past-the-end", "rotation-negative", "coupling-past-the-end",
            "first-bad-pulse-reported"])
    def test_out_of_register_targets_keep_their_message(self, pulses, r, message):
        with pytest.raises(ValueError) as info:
            PulseSequence(pulses, r)
        assert str(info.value) == message

    def test_pulses_of_a_subclass_are_checked_one_by_one(self):
        @dataclasses.dataclass(frozen=True)
        class Tagged(Rotation):
            tag: str = ""

        assert PulseSequence((Tagged("x", 0.1, 1, "a"),), 2).register_size == 2
        with pytest.raises(ValueError, match=r"pulse targets \(2,\) invalid for a 2-qubit"):
            PulseSequence((Rotation("x", 0.1, 0), Tagged("x", 0.1, 2, "a")), 2)

    @dataclasses.dataclass(frozen=True)
    class LooksLikeACoupling:
        angle: float = 0.1
        qubits: tuple = (0, 1)

    @pytest.mark.parametrize("pulse", [1, "x", None, LooksLikeACoupling()],
                             ids=["int", "str", "none", "duck-typed"])
    def test_non_pulses_are_rejected(self, pulse):
        with pytest.raises(ValueError, match=r"^pulse .+ is not a Rotation or an IsingCoupling$"):
            PulseSequence((Rotation("x", 0.1, 0), pulse), 2)

    def test_pulse_validation(self):
        with pytest.raises(ValueError):
            Rotation("q", 0.1, 0)
        with pytest.raises(ValueError):
            Rotation("x", float("nan"), 0)
        with pytest.raises(ValueError):
            IsingCoupling(0.1, (1, 1))


class TestSequenceUnitary:
    def test_single_pulse(self):
        p = Rotation("y", 0.4, 1)
        seq = PulseSequence((p,), 2)
        assert np.allclose(sequence_unitary(seq), expm_oracle(p, 2), atol=1e-12)

    def test_pulse_then_inverse_is_identity(self):
        seq = PulseSequence((Rotation("x", 0.7, 0), Rotation("x", -0.7, 0)), 1)
        assert np.allclose(sequence_unitary(seq), np.eye(2), atol=1e-12)

    def test_order_is_first_pulse_rightmost(self):
        a, b = Rotation("x", 0.3, 0), Rotation("z", 0.5, 0)
        seq = PulseSequence((a, b), 1)
        expected = expm_oracle(b, 1) @ expm_oracle(a, 1)
        assert np.allclose(sequence_unitary(seq), expected, atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sequence_unitary(PulseSequence((), 1))

    def test_sequence_rejects_oversized_targets(self):
        with pytest.raises(ValueError):
            PulseSequence((Rotation("x", 0.1, 5),), 2)

    @pytest.mark.parametrize("r", [4, 5])
    def test_matches_ordered_expm_product(self, r, rng):
        pairs = [pair for a, b in itertools.combinations(range(r), 2) for pair in ((a, b), (b, a))]
        for _ in range(3):
            # every axis on every qubit and every pair in both orders, shuffled
            angles = iter(rng.uniform(-3, 3, 3 * r + len(pairs)))
            pulses = [Rotation(axis, float(next(angles)), q) for q in range(r) for axis in AXES]
            pulses += [IsingCoupling(float(next(angles)), pair) for pair in pairs]
            seq = PulseSequence(tuple(pulses[i] for i in rng.permutation(len(pulses))), r)
            expected = np.eye(2**r)
            for p in seq.pulses:
                expected = expm_oracle(p, r) @ expected
            assert np.max(np.abs(sequence_unitary(seq) - expected)) < 1e-12


@st.composite
def _sequences(draw, max_r: int = 5) -> PulseSequence:
    r = draw(st.integers(1, max_r))
    angles = st.floats(-4.0, 4.0)
    kinds = [st.builds(Rotation, st.sampled_from(AXES), angles, st.integers(0, r - 1))]
    if r >= 2:
        pairs = st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True)
        kinds.append(st.builds(IsingCoupling, angles, pairs.map(tuple)))
    return PulseSequence(tuple(draw(st.lists(st.one_of(kinds), min_size=1, max_size=30))), r)


class TestApplyPulses:
    """The pulse kernel on state vectors, against the matrix it builds and scipy's expm."""

    @settings(max_examples=80, deadline=None)
    @given(_sequences(), st.integers(0, 2**32 - 1))
    def test_state_vector_matches_the_unitary(self, seq, seed):
        rng = np.random.default_rng(seed)
        dim = 2**seq.register_size
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        got = _apply_pulses(psi.copy(), seq.pulses)
        assert got.shape == psi.shape
        assert np.max(np.abs(got - sequence_unitary(seq) @ psi)) < 1e-12

    @pytest.mark.parametrize("arr", [np.arange(4, dtype=complex), np.eye(8, dtype=complex)],
                             ids=["vector", "matrix"])
    def test_empty_pulse_list_returns_its_input(self, arr):
        want = arr.copy()
        got = _apply_pulses(arr, ())
        assert got is arr and (got == want).all()

    @settings(max_examples=40, deadline=None)
    @given(_sequences())
    def test_unitary_matches_the_expm_product(self, seq):
        expected = np.eye(2**seq.register_size)
        for p in seq.pulses:
            expected = expm_oracle(p, seq.register_size) @ expected
        assert np.max(np.abs(sequence_unitary(seq) - expected)) < 1e-12


class TestPulseIndices:
    @pytest.mark.parametrize("bad", [1.7, True])
    def test_pulses_reject_non_integral_indices(self, bad):
        with pytest.raises(ValueError, match="qubit must be an integer"):
            Rotation("x", 0.1, bad)
        with pytest.raises(ValueError, match="qubits must be an integer"):
            IsingCoupling(0.1, (bad, 0))
        with pytest.raises(ValueError, match="qubits must be an integer"):
            IsingCoupling(0.1, (2, bad))

    @pytest.mark.parametrize("bad", [2.9, True])
    def test_sequence_rejects_non_integral_register(self, bad):
        with pytest.raises(ValueError, match="register_size must be an integer"):
            PulseSequence((), bad)

    def test_integral_floats_become_ints(self):
        rotation = Rotation("x", 0.1, 1.0)
        coupling = IsingCoupling(0.1, (0.0, 2.0))
        seq = PulseSequence((rotation, coupling), 3.0)
        assert rotation == Rotation("x", 0.1, 1) and type(rotation.qubit) is int
        assert coupling.qubits == (0, 2) and all(type(q) is int for q in coupling.qubits)
        assert seq.register_size == 3 and type(seq.register_size) is int

    @pytest.mark.parametrize(
        "field,value",
        [("register_size", 2.9), ("register_size", True), ("rotation", [1.7]),
         ("rotation", [True]), ("ising", [True, 0]), ("ising", [0, 1.5]),
         ("register_size", "2"), ("rotation", ["0"]), ("ising", ["0", "1"])],
        ids=["register-2.9", "register-true", "rotation-1.7", "rotation-true",
             "ising-true-0", "ising-0-1.5", "register-str", "rotation-str", "ising-str"],
    )
    def test_document_rejects_non_integral_index(self, field, value):
        doc = sequence_to_dict(swap_sequence(0, 1))
        if field == "register_size":
            doc["register_size"] = value
        else:
            next(p for p in doc["pulses"] if p["kind"] == field)["targets"] = value
            field = "targets"
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            sequence_from_dict(doc)

    def test_document_accepts_integral_floats(self):
        seq = swap_sequence(0, 1)
        doc = sequence_to_dict(seq)
        doc["register_size"] = 2.0
        for pulse in doc["pulses"]:
            pulse["targets"] = [float(t) for t in pulse["targets"]]
        assert sequence_from_dict(doc) == seq


class TestSwapSequence:
    def test_swaps_basis_states(self):
        u = sequence_unitary(swap_sequence(0, 1))
        ket01 = np.array([0, 1, 0, 0], dtype=complex)
        out = u @ ket01
        assert np.isclose(abs(out[2]), 1.0, atol=1e-12)  # |10> up to phase
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        assert np.isclose(abs((u @ ket00)[0]), 1.0, atol=1e-12)

    def test_matches_canonical_swap(self):
        u = sequence_unitary(swap_sequence(0, 1))
        assert phase_aligned_deviation(canonical_swap(0, 1, 2), u) < 1e-9

    def test_fixes_exchange_symmetric_states(self):
        u = sequence_unitary(swap_sequence(0, 1))
        for ket in (
            np.array([1, 0, 0, 0]),
            np.array([0, 0, 0, 1]),
            np.array([0, 1, 1, 0]) / np.sqrt(2),
        ):
            out = u @ ket.astype(complex)
            assert np.isclose(abs(np.vdot(ket, out)), 1.0, atol=1e-10)

    def test_relabeled_qubits(self):
        u = sequence_unitary(swap_sequence(2, 0))
        assert phase_aligned_deviation(canonical_swap(2, 0, 3), u) < 1e-9

    def test_rejects_equal_qubits(self):
        with pytest.raises(ValueError):
            swap_sequence(1, 1)


class TestThreeBodySequence:
    def test_zero_angle_is_identity(self):
        u = sequence_unitary(three_body_sequence(0.0, 0, 1, 2))
        assert phase_aligned_deviation(np.eye(8), u) < 1e-12

    @pytest.mark.parametrize("phi", [np.pi / 8, 0.3, -1.1, 2.5])
    def test_matches_diagonal_oracle(self, phi):
        # ZZZ is diagonal with parity signs; build the target by hand
        idx = np.arange(8)
        parity = ((idx >> 2) & 1) + ((idx >> 1) & 1) + (idx & 1)
        target = np.diag(np.exp(1j * phi * (1.0 - 2.0 * (parity % 2))))
        u = sequence_unitary(three_body_sequence(phi, 0, 1, 2))
        assert phase_aligned_deviation(target, u) < 1e-9
        assert np.allclose(target, zzz_unitary(phi, 0, 1, 2, 3), atol=1e-12)

    def test_additivity(self):
        u1 = sequence_unitary(three_body_sequence(0.4, 0, 1, 2))
        u2 = sequence_unitary(three_body_sequence(-0.9, 0, 1, 2))
        u12 = sequence_unitary(three_body_sequence(-0.5, 0, 1, 2))
        assert phase_aligned_deviation(u12, u1 @ u2) < 1e-9

    def test_couplings_only_on_ct_and_ts(self):
        seq = three_body_sequence(0.3, 0, 1, 2)
        pairs = {frozenset(p.qubits) for p in seq.pulses if isinstance(p, IsingCoupling)}
        assert pairs == {frozenset({0, 1}), frozenset({1, 2})}

    def test_rejects_repeated_qubits(self):
        with pytest.raises(ValueError):
            three_body_sequence(0.1, 0, 0, 1)


class TestCswapSequence:
    def test_matches_canonical_cswap(self):
        u = sequence_unitary(cswap_sequence(0, 1, 2))
        assert phase_aligned_deviation(canonical_cswap(0, 1, 2, 3), u) < 1e-9

    def test_basis_action(self):
        u = sequence_unitary(cswap_sequence(0, 1, 2))
        for a in (0, 1):
            for b in (0, 1):
                ket = np.zeros(8, dtype=complex)
                ket[4 + 2 * a + b] = 1.0  # |1ab>
                out = u @ ket
                assert np.isclose(abs(out[4 + 2 * b + a]), 1.0, atol=1e-10)
                ket0 = np.zeros(8, dtype=complex)
                ket0[2 * a + b] = 1.0  # |0ab>
                assert np.isclose(abs((u @ ket0)[2 * a + b]), 1.0, atol=1e-10)

    def test_nearest_neighbor_couplings_only(self):
        # couplings act on (c,t) and (t,s) pairs, never across (c,s)
        c, t, s = 0, 1, 2
        seq = cswap_sequence(c, t, s)
        pairs = {frozenset(p.qubits) for p in seq.pulses if isinstance(p, IsingCoupling)}
        assert pairs == {frozenset({c, t}), frozenset({t, s})}
        assert frozenset({c, s}) not in pairs

    def test_sequences_are_unitary(self):
        for seq in (swap_sequence(0, 1), three_body_sequence(0.7, 0, 1, 2), cswap_sequence(0, 1, 2)):
            u = sequence_unitary(seq)
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-9

    def test_rejects_repeated_qubits(self):
        with pytest.raises(ValueError):
            cswap_sequence(0, 1, 1)


def _document(register_size, rows):
    """A sequence document from (axis or "zz", angle, targets) rows."""
    pulses = [{"kind": "ising", "angle": angle, "targets": list(targets)} if axis == "zz"
              else {"kind": "rotation", "axis": axis, "angle": angle, "targets": list(targets)}
              for axis, angle, targets in rows]
    return {"register_size": register_size, "pulses": pulses}


Q, E, H = np.pi / 4, np.pi / 8, np.pi / 2


class TestPulseOrder:
    """The exported pulse lists, in order; reordering commuting pulses keeps the unitary."""

    def test_swap_document(self):
        want = _document(2, [
            ("zz", -Q, (1, 0)), ("x", -Q, (1,)), ("x", -Q, (0,)),
            ("zz", -Q, (1, 0)), ("x", Q, (1,)), ("x", Q, (0,)), ("y", -Q, (1,)), ("y", -Q, (0,)),
            ("zz", -Q, (1, 0)), ("y", Q, (1,)), ("y", Q, (0,)),
        ])
        assert sequence_to_dict(swap_sequence(1, 0)) == want

    def test_cswap_document(self):
        controlled = [  # the controlled counterpart of one coupling on (t, s) = (0, 4)
            ("y", Q, (0,)), ("x", Q, (0,)), ("y", H, (2,)), ("zz", Q, (2, 0)),
            ("x", -Q, (0,)), ("y", -Q, (2,)), ("zz", -E, (0, 4)), ("x", Q, (0,)),
            ("y", Q, (2,)), ("zz", -Q, (2, 0)), ("x", -Q, (0,)), ("y", -Q, (0,)),
            ("y", -H, (2,)), ("zz", -E, (0, 4)),
        ]
        want = _document(5, [
            *controlled, ("x", -Q, (0,)), ("x", -Q, (4,)),
            *controlled, ("x", Q, (0,)), ("x", Q, (4,)), ("y", -Q, (0,)), ("y", -Q, (4,)),
            *controlled, ("y", Q, (0,)), ("y", Q, (4,)),
            ("z", -E, (2,)),
        ])
        assert sequence_to_dict(cswap_sequence(2, 0, 4)) == want


class TestInteractionTime:
    def test_empty_sequence_costs_nothing(self):
        assert interaction_time(PulseSequence((), 2), CouplingModel(1.0)) == 0.0

    def test_cswap_budgets(self):
        seq = cswap_sequence(0, 1, 2)
        fixed = interaction_time(seq, CouplingModel(1.0))
        assert abs(fixed - 27 * np.pi / 4) / (27 * np.pi / 4) < 1e-12
        tunable = interaction_time(seq, CouplingModel(1.0, sign_tunable=True))
        assert abs(tunable - 9 * np.pi / 4) / (9 * np.pi / 4) < 1e-12

    def test_scales_inversely_with_g(self):
        seq = cswap_sequence(0, 1, 2)
        assert np.isclose(
            interaction_time(seq, CouplingModel(2.0)),
            interaction_time(seq, CouplingModel(1.0)) / 2,
        )

    def test_swap_budget(self):
        # three couplings of angle -pi/4, all directly reachable with g > 0
        seq = swap_sequence(0, 1)
        assert np.isclose(interaction_time(seq, CouplingModel(1.0)), 3 * np.pi / 4)

    def test_invariant_under_relabeling(self):
        model = CouplingModel(1.3)
        assert np.isclose(
            interaction_time(cswap_sequence(0, 1, 2), model),
            interaction_time(cswap_sequence(2, 4, 3), model),
        )

    def test_invariant_under_extra_single_qubit_pulses(self):
        seq = swap_sequence(0, 1)
        extended = PulseSequence(seq.pulses + (Rotation("z", 1.1, 0),), seq.register_size)
        model = CouplingModel(0.7, sign_tunable=True)
        assert interaction_time(seq, model) == interaction_time(extended, model)

    def test_rejects_nonpositive_g(self):
        with pytest.raises(ValueError):
            CouplingModel(0.0)

    @pytest.mark.parametrize("g", [np.inf, np.nan])
    def test_rejects_nonfinite_g(self, g):
        with pytest.raises(ValueError, match="finite"):
            CouplingModel(g)

    @pytest.mark.parametrize("flag", ["no", 0, 1, None, 1.0], ids=repr)
    def test_rejects_non_bool_sign_tunable(self, flag):
        with pytest.raises(ValueError, match="sign_tunable must be a bool"):
            CouplingModel(1.0, sign_tunable=flag)

    def test_numpy_bool_sign_tunable_accepted(self):
        seq = cswap_sequence(0, 1, 2)
        for flag in (False, True):
            want = interaction_time(seq, CouplingModel(1.0, flag))
            assert interaction_time(seq, CouplingModel(1.0, np.bool_(flag))) == want


def axis_gate(r, swap=None, control=None, phase=None):
    """A canonical gate from its action on the state tensor, one axis per qubit.

    Its columns are the basis states, viewed as a tensor with one axis per
    qubit and a last axis for the column.  ``swap`` exchanges the axes of
    two qubits, only on the slice where qubit ``control`` is 1 if one is
    given; ``phase`` = (phi, qubits) multiplies by exp(+i phi) where the
    bits of those qubits have even parity and by exp(-i phi) where it is odd.
    """
    dim = 2**r
    tensor = np.eye(dim, dtype=complex).reshape([2] * r + [dim])
    if swap is not None:
        swapped = tensor.swapaxes(*swap)
        if control is None:
            tensor = swapped
        else:
            on = np.arange(2).reshape([2 if q == control else 1 for q in range(r + 1)]) == 1
            tensor = np.where(on, swapped, tensor)
    if phase is not None:
        phi, qubits = phase
        parity = sum(np.indices([2] * r)[q] for q in qubits) % 2
        tensor = tensor * np.exp(1j * phi * (1.0 - 2.0 * parity))[..., np.newaxis]
    return tensor.reshape(dim, dim)


class TestCanonicalGates:
    @pytest.mark.parametrize("r", [3, 4])
    def test_equal_their_axis_definitions(self, r):
        for t, s in itertools.permutations(range(r), 2):
            assert np.array_equal(canonical_swap(t, s, r), axis_gate(r, swap=(t, s)))
        for c, t, s in itertools.permutations(range(r), 3):
            assert np.array_equal(canonical_cswap(c, t, s, r),
                                  axis_gate(r, swap=(t, s), control=c))
            assert np.array_equal(zzz_unitary(0.3, c, t, s, r),
                                  axis_gate(r, phase=(0.3, (c, t, s))))

    @pytest.mark.parametrize("targets", [(-1, 0, 1), (1, 1, 0), (0, 3, 1)],
                             ids=["negative", "repeated", "past-register"])
    @pytest.mark.parametrize("build", [
        lambda t: canonical_swap(t[0], t[1], 3),
        lambda t: canonical_cswap(*t, 3),
        lambda t: zzz_unitary(0.3, *t, 3),
        lambda t: apply_unitary(random_state(3, 0), np.eye(8), t),
        # the constructors reject negative and repeated targets, and
        # PulseSequence rejects targets past its register
        lambda t: PulseSequence(swap_sequence(t[0], t[1]).pulses, 3),
        lambda t: PulseSequence(three_body_sequence(0.3, *t).pulses, 3),
        lambda t: PulseSequence(cswap_sequence(*t).pulses, 3),
    ], ids=["swap", "cswap", "zzz", "apply-unitary", "swap-sequence", "three-body-sequence",
            "cswap-sequence"])
    def test_rejects_bad_targets(self, build, targets):
        with pytest.raises(ValueError, match="invalid .*targets"):
            build(targets)


class TestUnitaryCap:
    # only the error path is run: a matrix at the cap alone is 1 GiB
    @pytest.mark.parametrize("build", [
        lambda r: sequence_unitary(PulseSequence((Rotation("x", 0.1, 0),), r)),
        lambda r: canonical_swap(0, 1, r),
        lambda r: canonical_cswap(0, 1, 2, r),
        lambda r: zzz_unitary(0.3, 0, 1, 2, r),
    ], ids=["sequence", "swap", "cswap", "zzz"])
    @pytest.mark.parametrize("r", [UNITARY_MAX_QUBITS + 1, 40])
    def test_rejects_registers_past_the_cap(self, build, r):
        with pytest.raises(ValueError, match=f"{r} qubits exceeds .*UNITARY_MAX_QUBITS = 13"):
            build(r)

    def test_sequences_themselves_are_uncapped(self):
        assert swap_sequence(0, UNITARY_MAX_QUBITS + 1).register_size == UNITARY_MAX_QUBITS + 2


class TestGlobalPhaseComparison:
    def test_phase_multiples_are_equal(self, rng):
        from conftest import haar_unitary

        u = haar_unitary(4, rng)
        for alpha in (0.0, 0.3, np.pi, -2.0):
            assert phase_aligned_deviation(u, np.exp(1j * alpha) * u) < 1e-9

    def test_identity_vs_swap_differ(self):
        assert not phase_aligned_deviation(np.eye(4), canonical_swap(0, 1, 2)) < 1e-9

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            phase_aligned_deviation(np.eye(2), np.eye(4))


class TestSequenceFiles:
    def test_dict_round_trip(self):
        seq = cswap_sequence(0, 1, 2)
        again = sequence_from_dict(sequence_to_dict(seq))
        assert again == seq

    def test_file_round_trip(self, tmp_path):
        seq = three_body_sequence(0.37, 0, 1, 2)
        path = tmp_path / "seq.json"
        save_sequence(seq, path)
        loaded = load_sequence(path)
        assert loaded == seq
        assert phase_aligned_deviation(sequence_unitary(seq), sequence_unitary(loaded)) < 1e-15

    def test_file_is_the_shared_compact_encoding(self, tmp_path):
        seq = cswap_sequence(2, 0, 4)
        path = tmp_path / "seq.json"
        save_sequence(seq, path)
        assert path.read_bytes() == _encode_json(sequence_to_dict(seq))
        assert path.read_bytes().endswith(b"}\n") and b", " not in path.read_bytes()

    def test_rejects_malformed(self, tmp_path):
        with pytest.raises(ValueError, match="unknown pulse kind"):
            sequence_from_dict({"pulses": [{"kind": "mystery"}]})
        with pytest.raises(ValueError, match="malformed"):
            sequence_from_dict({"register_size": 2})
        bad = tmp_path / "bad.json"
        bad.write_text("[")
        with pytest.raises(MalformedInput, match=f"malformed sequence file {bad}"):
            load_sequence(bad)

    @pytest.mark.parametrize(
        "pulse",
        [{"kind": "mystery", "angle": 0.1, "targets": [0]},
         {"kind": "rotation", "angle": 0.1, "targets": [0]},
         {"kind": "rotation", "axis": "x", "angle": 0.1, "targets": [0, 1]},
         {"kind": "ising", "angle": "pi", "targets": [0, 1]},
         {"kind": "ising", "angle": 10**400, "targets": [0, 1]},
         {"kind": "ising", "angle": "0.7853981633974483", "targets": [0, 1]},
         {"kind": "rotation", "axis": "x", "angle": True, "targets": [0]}],
        ids=["unknown-kind", "no-axis", "two-targets", "string-angle", "huge-angle",
             "numeric-string-angle", "bool-angle"],
    )
    def test_malformed_document_raises_malformed_input(self, pulse):
        with pytest.raises(MalformedInput, match="malformed sequence document"):
            sequence_from_dict({"register_size": 2, "pulses": [pulse]})

    @pytest.mark.parametrize(
        "pulse",
        [{"kind": "rotation", "axis": "w", "angle": 0.1, "targets": [0]},
         {"kind": "ising", "angle": 0.1, "targets": [0, 2]},
         {"kind": "ising", "angle": 0.1, "targets": [1, 1]}],
        ids=["unknown-axis", "target-outside-register", "repeated-target"],
    )
    def test_invalid_sequence_is_not_malformed(self, pulse):
        with pytest.raises(ValueError) as info:
            sequence_from_dict({"register_size": 2, "pulses": [pulse]})
        assert not isinstance(info.value, MalformedInput)
