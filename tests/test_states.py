"""Tests for the state-vector and density-matrix kernel."""

import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

from qent import (
    DensityMatrix,
    PureState,
    apply_unitary,
    cluster_state,
    ghz_state,
    load_state,
    product_state,
    purity,
    q_purity,
    random_product_state,
    random_state,
    save_state,
    subset_purity_exact,
    w_state,
)
from qent import states
from qent.protocol import _joint_distribution
from qent.states import (
    MalformedInput,
    _norm2,
    encode_state,
    subset_purities,
)

from conftest import (
    MALFORMED_FILES,
    brute_force_reduced,
    cluster_product_expansion,
    haar_unitary,
    oracle_purity,
    partial_trace,
    random_density,
)


class TestTypes:
    def test_pure_state_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            PureState(2, np.array([1.0, 0.0]))

    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(1, np.array([1.0, 1.0]))

    def test_pure_state_rejects_nan(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(1, np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_norm2_matches_vdot(self, n):
        amps = random_state(n, n).amplitudes * 1.5
        want = np.vdot(amps, amps).real
        # the two sums round their 2**(n + 1) additions in different orders;
        # they differed by under 20 eps over 800 seeded states with n <= 16
        assert abs(_norm2(amps) - want) <= 64 * np.finfo(float).eps * want

    def test_pure_state_rejects_oversized_n_before_allocating(self, no_state_numpy):
        # 2**100_000 alone is a 30,000-digit integer
        with pytest.raises(ValueError, match="MAX_QUBITS"):
            PureState(100_000, [1, 0])

    def test_pure_state_is_frozen(self):
        state = ghz_state(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_density_matrix_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(2, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_matrix_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(2, np.eye(2))

    @pytest.mark.parametrize(
        "entries", [[[np.nan, 0.0], [0.0, 0.5]], [[0.5, np.nan], [np.nan, 0.5]]]
    )
    def test_density_matrix_rejects_nan(self, entries):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(2, np.array(entries))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(2, np.diag([1.5, -0.5]))

    def test_density_matrix_accepts_tiny_negative_eigenvalue(self):
        DensityMatrix(2, np.diag([1 + 5e-10, -5e-10]))


class TestFactories:
    def test_product_single_factor(self):
        state = product_state([(1, 0)])
        assert np.allclose(state.amplitudes, [1, 0])

    def test_product_basis_kets(self):
        state = product_state([(1, 0), (0, 1)])
        assert np.allclose(state.amplitudes, [0, 1, 0, 0])  # |01>

    def test_product_hadamard_basis_uniform(self):
        h = (1 / np.sqrt(2), 1 / np.sqrt(2))
        for n in (1, 3, 5):
            state = product_state([h] * n)
            assert np.allclose(state.amplitudes, 2 ** (-n / 2))

    def test_product_rejects_bad_input(self):
        with pytest.raises(ValueError):
            product_state([])
        with pytest.raises(ValueError, match="normalized"):
            product_state([(1, 1)])
        with pytest.raises(ValueError, match="length"):
            product_state([(1, 0, 0)])

    def test_product_rejects_unnormalized_product_of_normalized_factors(self):
        # each factor's squared norm 1 + 0.9e-10 is within NORM_ATOL, their product is not
        f = np.sqrt(1 + 0.9e-10) * np.array([1.0, 0.0])
        assert abs(product_state([f]).amplitudes[0]) > 1.0
        with pytest.raises(ValueError, match=r"the factor squared norms \[1\.00000000009"):
            product_state([f, f])

    def test_ghz_amplitudes(self):
        assert np.allclose(ghz_state(2).amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
        amps = ghz_state(3).amplitudes
        assert np.isclose(amps[0], 1 / np.sqrt(2)) and np.isclose(amps[7], 1 / np.sqrt(2))
        assert np.allclose(amps[1:7], 0)

    def test_ghz4_single_qubit_purity_is_half(self):
        # oracle: brute-force partial trace, then Tr[rho^2] by hand
        state = ghz_state(4)
        for k in range(4):
            rho = brute_force_reduced(state, [k])
            assert abs(np.trace(rho @ rho).real - 0.5) < 1e-12

    def test_w_amplitudes(self):
        assert np.allclose(w_state(2).amplitudes, [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])
        amps = w_state(3).amplitudes
        assert np.allclose(amps[[1, 2, 4]], 1 / np.sqrt(3))
        assert np.allclose(amps[[0, 3, 5, 6, 7]], 0)

    def test_cluster_n2_amplitudes(self):
        assert np.allclose(cluster_state(2).amplitudes, np.array([1, 1, 1, -1]) / 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cluster_vs_product_expansion(self, n):
        # The operator-tagged product form equals the controlled-Z
        # construction after sigma_z on qubits 1..n-1 (a local unitary);
        # the amplitude patterns themselves differ.
        built = cluster_state(n).amplitudes
        literal = cluster_product_expansion(n)
        idx = np.arange(2**n)
        tail_parity = sum((idx >> (n - 1 - k)) & 1 for k in range(1, n)) % 2
        z_tail = np.where(tail_parity == 1, -1.0, 1.0)
        assert np.allclose(built * z_tail, literal, atol=1e-12)
        assert not np.allclose(built, literal)

    @pytest.mark.parametrize("factory", [ghz_state, w_state, cluster_state])
    def test_factories_reject_small_n(self, factory):
        with pytest.raises(ValueError):
            factory(1)

    @pytest.mark.parametrize("n", [27, 40, 64])  # 27 = MAX_QUBITS + 1
    @pytest.mark.parametrize(
        "factory",
        [ghz_state, w_state, cluster_state, random_state, random_product_state,
         lambda n: product_state([(1, 0)] * n)],
        ids=["ghz", "w", "cluster", "random", "random_product", "product"],
    )
    def test_factories_reject_oversized_n_before_allocating(self, factory, n, no_state_numpy):
        with pytest.raises(ValueError, match="MAX_QUBITS"):
            factory(n)

    def test_random_state_is_seed_deterministic(self):
        a = random_state(4, 11).amplitudes
        b = random_state(4, 11).amplitudes
        assert np.array_equal(a, b)

    def test_random_product_state_has_unit_purities(self, rng):
        state = random_product_state(5, rng)
        purities = subset_purities(state, [[k] for k in range(5)])
        assert np.max(np.abs(purities - 1.0)) < 1e-10


class TestApplyUnitary:
    def test_identity_leaves_state_unchanged(self, rng):
        state = random_state(4, rng)
        for targets in ([0], [1, 3], [0, 2, 3]):
            out = apply_unitary(state, np.eye(2 ** len(targets)), targets)
            assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_bit_flip_on_qubit0(self):
        x = np.array([[0, 1], [1, 0]])
        out = apply_unitary(product_state([(1, 0), (1, 0)]), x, [0])
        assert np.allclose(out.amplitudes, [0, 0, 1, 0])  # |10>

    def test_local_unitaries_preserve_q(self, rng):
        # oracle: the measure itself, evaluated before and after
        state = ghz_state(3)
        before = q_purity(state)
        for k in range(3):
            state = apply_unitary(state, haar_unitary(2, rng), [k])
        assert abs(q_purity(state) - before) < 1e-9

    def test_norm_preserved(self, rng):
        state = random_state(5, rng)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            targets = sorted(rng.choice(5, size=m, replace=False).tolist())
            state = apply_unitary(state, haar_unitary(2**m, rng), targets)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10

    def test_target_order_matters_consistently(self):
        # CNOT with control listed second == CNOT built with reversed axes
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        state = product_state([(0, 1), (1, 0)])  # |10>
        flipped = apply_unitary(state, cnot, [0, 1])
        assert np.allclose(flipped.amplitudes, [0, 0, 0, 1])  # |11>
        same = apply_unitary(state, cnot, [1, 0])  # control is qubit 1 = |0>
        assert np.allclose(same.amplitudes, state.amplitudes)

    def test_rejects_bad_input(self, rng):
        state = random_state(3, rng)
        with pytest.raises(ValueError, match="dim"):
            apply_unitary(state, np.eye(4), [0])
        with pytest.raises(ValueError, match="targets"):
            apply_unitary(state, np.eye(4), [0, 3])
        with pytest.raises(ValueError, match="duplicates"):
            apply_unitary(state, np.eye(4), [1, 1])
        with pytest.raises(ValueError, match="unitarity"):
            apply_unitary(state, np.ones((2, 2)), [0])


class TestReducedDensity:
    """Reduced states from the tests' partial_trace oracle, and the purities read from them."""

    def test_product_state_single_qubit_is_pure(self, rng):
        state = random_product_state(4, rng)
        for k in range(4):
            rho = DensityMatrix(2, partial_trace(state, [k]))
            assert abs(purity(rho) - 1.0) < 1e-10

    def test_ghz_single_qubit_maximally_mixed(self):
        for n in (2, 3, 5):
            for k in range(n):
                assert np.allclose(partial_trace(ghz_state(n), [k]), np.eye(2) / 2, atol=1e-12)

    def test_w3_qubit0_diagonal(self):
        rho = partial_trace(w_state(3), [0])
        assert np.allclose(rho, np.diag([2 / 3, 1 / 3]), atol=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        for n in range(1, 6):
            state = random_state(n, rng)
            for m in range(1, n + 1):
                for keep in itertools.combinations(range(n), m):
                    # the kept axes follow the order given, sorted or not
                    for order in (keep, keep[::-1]):
                        want = brute_force_reduced(state, order)
                        assert np.allclose(partial_trace(state, order), want, atol=1e-12)

    def test_schmidt_symmetry_of_spectra(self, rng):
        # nonzero eigenvalues of the two sides of any bipartition agree
        state = random_state(5, rng)
        for part_a in ([0], [1, 3], [0, 2, 4]):
            part_b = [q for q in range(5) if q not in part_a]
            eig_a = np.sort(np.linalg.eigvalsh(partial_trace(state, part_a)))[::-1]
            eig_b = np.sort(np.linalg.eigvalsh(partial_trace(state, part_b)))[::-1]
            m = min(len(eig_a), len(eig_b))
            assert np.allclose(eig_a[:m], eig_b[:m], atol=1e-9)
            assert np.allclose(eig_a[m:], 0, atol=1e-9) and np.allclose(eig_b[m:], 0, atol=1e-9)

    def test_single_qubit_purity_bounds(self, rng):
        for _ in range(5):
            purities = subset_purities(random_state(4, rng), [[k] for k in range(4)])
            assert np.all((0.5 - 1e-12 <= purities) & (purities <= 1 + 1e-10))

    def test_rejects_invalid_subsets(self, rng):
        state = random_state(3, rng)
        for bad in ([], [3], [-1], [1, 1], [2, 0], [0.5], [True], ["1"]):
            with pytest.raises(ValueError):
                subset_purities(state, [bad])


def _families(n: int, rng) -> list:
    return [random_state(n, rng), cluster_state(n), ghz_state(n), w_state(n),
            random_product_state(n, rng)]


class TestSubsetPurities:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_per_subset_purity(self, rng, n):
        for state in _families(n, rng):
            for m in range(1, n + 1):
                subsets = list(itertools.combinations(range(n), m))
                want = [oracle_purity(state, s) for s in subsets]
                assert np.max(np.abs(subset_purities(state, subsets) - want)) < 1e-14

    @pytest.mark.parametrize("n", [10, 11, 13])
    def test_single_qubits_of_larger_states(self, rng, n):
        for state in _families(n, rng):
            got = subset_purities(state, [[k] for k in range(n)])
            want = [oracle_purity(state, [k]) for k in range(n)]
            assert np.max(np.abs(got - want)) < 1e-14
            # a fresh copy, so that the two-qubit stack is computed, not read from the memo
            fresh = PureState(state.n_qubits, state.amplitudes)
            assert np.max(np.abs(subset_purities(fresh, [[3], [0]]) - got[[3, 0]])) < 1e-14

    def test_chunks_give_the_same_values(self, rng, monkeypatch):
        state = random_state(6, rng)
        subsets = list(itertools.combinations(range(6), 3))
        whole = subset_purities(state, subsets)
        monkeypatch.setattr(states, "_STACK_BYTES", 1)  # one subset per chunk
        fresh = PureState(state.n_qubits, state.amplitudes)
        assert np.max(np.abs(subset_purities(fresh, subsets) - whole)) < 1e-15

    def test_rejects_bad_subset_lists(self, rng):
        state = random_state(3, rng)
        for bad in ([], [[0], [0, 1]], [[3]], [[1, 1]], [[]]):
            with pytest.raises(ValueError):
                subset_purities(state, bad)


def _all_subsets(n: int) -> list[tuple[int, ...]]:
    return [s for m in range(1, n + 1) for s in itertools.combinations(range(n), m)]


def _computed(state: PureState, subsets) -> tuple[np.ndarray, np.ndarray]:
    """Purities computed with no memo to read: each subset alone, and all in one stack."""
    alone = [subset_purities(PureState(state.n_qubits, state.amplitudes), [s])[0]
             for s in subsets]
    return np.array(alone), subset_purities(PureState(state.n_qubits, state.amplitudes), subsets)


class TestPurityMemo:
    ROUTES = {
        "none": lambda state: None,
        "alone": lambda state: [subset_purities(state, [s]) for s in _all_subsets(state.n_qubits)],
        "stacked": lambda state: [subset_purities(state, list(itertools.combinations(
            range(state.n_qubits), m))[::-1]) for m in range(1, state.n_qubits + 1)],
        "q_purity": q_purity,
        "joint": _joint_distribution,
        "subset_purity_exact": lambda state: [subset_purity_exact(state, s)
                                              for s in _all_subsets(state.n_qubits)],
    }

    @pytest.mark.parametrize("n", range(2, 9))
    def test_any_call_order_gives_the_same_bits(self, rng, n):
        for family in _families(n, rng):
            by_size = [list(itertools.combinations(range(n), m)) for m in range(1, n + 1)]
            want = []
            for subsets in by_size:
                alone, stacked = _computed(family, subsets)
                assert (alone == stacked).all()
                want.append(alone)
            for first in self.ROUTES.values():
                state = PureState(n, family.amplitudes)
                first(state)
                for subsets, alone in zip(by_size, want):
                    assert (subset_purities(state, subsets) == alone).all()

    def test_each_subset_is_computed_once(self, rng):
        state = random_state(6, rng)
        q_purity(state)
        assert sorted(state._purities) == [(k,) for k in range(6)]
        _joint_distribution(state)
        # a pure state's purity table is computed on the smaller side of each cut
        assert len(state._purities) == 6 + 15 + 10

    def test_duplicates_within_one_call(self, rng):
        state = random_state(4, rng)
        for subsets in ([[1], [0], [1], [1]], [[0, 2], [1, 3], [0, 2]]):
            alone, _ = _computed(state, subsets)
            assert (subset_purities(state, subsets) == alone).all()
        assert sorted(state._purities) == [(0,), (0, 2), (1,), (1, 3)]

    def test_result_is_a_fresh_array(self, rng):
        state = random_state(4, rng)
        subsets = [[0, 1], [2, 3]]
        got = subset_purities(state, subsets)
        want = got.copy()
        got[:] = -1.0
        again = subset_purities(state, subsets)
        assert (again == want).all() and again is not got

    def test_lookups_still_check_their_subsets(self, rng):
        state = random_state(3, rng)
        subset_purities(state, [[0], [1], [2]])
        for bad in ([], [[0], [0, 1]], [[3]], [[1, 1]], [[]], [[0.5]]):
            with pytest.raises(ValueError):
                subset_purities(state, bad)

    def test_a_call_that_raises_stores_nothing(self, rng, monkeypatch):
        state = random_state(5, rng)
        subsets = list(itertools.combinations(range(5), 2))
        monkeypatch.setattr(states, "_STACK_BYTES", 1)  # one subset per chunk
        gram_stack, chunks = states._gram_stack, []

        def gram_stack_failing_third(state, chunk):
            chunks.append(chunk)
            if len(chunks) == 3:
                raise ValueError("trace")
            return gram_stack(state, chunk)

        monkeypatch.setattr(states, "_gram_stack", gram_stack_failing_third)
        with pytest.raises(ValueError, match="trace"):
            subset_purities(state, subsets)
        assert state._purities == {}

    def test_memo_is_not_a_field(self, rng):
        state = random_state(3, rng)
        q_purity(state)
        assert [f.name for f in dataclasses.fields(PureState)] == ["n_qubits", "amplitudes"]
        assert "_purities" not in repr(state)
        rebuilt = dataclasses.replace(state)
        assert rebuilt._purities == {}


class TestDensityStackCheck:
    """The density checks, which ``DensityMatrix`` alone runs."""

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize(
        "defect,message",
        [("hermitian", "deviates from Hermitian"), ("nan", "deviates from Hermitian"),
         ("trace", "deviates from 1"), ("negative", "has eigenvalue")],
    )
    def test_rejects_each_defect(self, rng, dim, defect, message):
        bad = random_density(dim, rng).entries.copy()
        if defect == "hermitian":
            bad[0, 1] += 1e-3
        elif defect == "nan":
            bad[-1, -1] = np.nan
        elif defect == "trace":
            bad *= 1.5
        else:
            bad[...] = np.diag([1.5, -0.5] + [0.0] * (dim - 2))
        with pytest.raises(ValueError, match=message):
            DensityMatrix(dim, bad)

    @pytest.mark.parametrize(
        "entries,message",
        [([[0.5, 0.5], [0.0, 0.5]], "matrix deviates from Hermitian by 5.000e-01"),
         (np.eye(2), f"trace {np.complex128(2)!r} deviates from 1 beyond {states.TRACE_ATOL}"),
         (np.diag([1.5, -0.5]),
          f"matrix has eigenvalue -5.000e-01 below {states.EIGENVALUE_FLOOR}")],
    )
    def test_single_matrix_message_names_no_position(self, entries, message):
        with pytest.raises(ValueError) as info:
            DensityMatrix(2, np.array(entries))
        assert str(info.value) == message

    def test_accepts_the_eigenvalue_floor_edge(self):
        DensityMatrix(4, np.diag([1 + 5e-10, -5e-10, 0.0, 0.0]))


class TestPurityAndInner:
    def test_purity_values(self):
        assert np.isclose(purity(DensityMatrix(2, np.eye(2) / 2)), 0.5)
        proj = np.outer([1, 0], [1, 0]).astype(complex)
        assert np.isclose(purity(DensityMatrix(2, proj)), 1.0)
        assert np.isclose(purity(DensityMatrix(2, np.diag([2 / 3, 1 / 3]))), 5 / 9)


class TestStateFiles:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_round_trip_is_bit_identical(self, tmp_path, n):
        amps = random_state(n, n).amplitudes.copy()
        amps[0] = 0.0
        amps /= np.sqrt(np.vdot(amps, amps).real)
        # a signed zero and the smallest subnormal, set after the division
        amps[0] = complex(-0.0, 5e-324)
        state = PureState(n, amps)
        path = tmp_path / "state.json"
        save_state(state, path)
        loaded = load_state(path)
        assert loaded.n_qubits == n
        assert np.array_equal(loaded.amplitudes.view(np.uint64), state.amplitudes.view(np.uint64))

    def test_file_is_compact_with_shortest_floats(self, tmp_path):
        amps = np.zeros(4, dtype=complex)
        amps[0], amps[3] = 1e-05, np.sqrt(1 - 1e-10)
        data = encode_state(PureState(2, amps))
        assert data == (
            b'{"n_qubits":2,"amplitudes":[[0.00001,0.0],[0.0,0.0],[0.0,0.0],[0.99999999995,0.0]]}\n'
        )
        save_state(PureState(2, amps), tmp_path / "s.json")
        assert (tmp_path / "s.json").read_bytes() == data

    def test_reads_json_dumps_form(self, tmp_path):
        amps = random_state(4, 5).amplitudes.copy()
        amps[0] = 0.0
        amps *= np.sqrt(1 - 2e-10) / np.sqrt(np.vdot(amps, amps).real)
        amps[0] = complex(1e-05, -1e-05)
        state = PureState(4, amps)
        path = tmp_path / "old.json"
        pairs = amps.view(float).reshape(-1, 2).tolist()
        path.write_text(json.dumps({"n_qubits": 4, "amplitudes": pairs}) + "\n")
        assert "[1e-05, -1e-05], [" in path.read_text()
        assert np.array_equal(load_state(path).amplitudes.view(np.uint64), amps.view(np.uint64))

    def test_dict_round_trip(self, tmp_path):
        # the document json parses from a state file, written back by json
        state = w_state(3)
        path = tmp_path / "w3.json"
        path.write_text(json.dumps(json.loads(encode_state(state))))
        assert np.array_equal(load_state(path).amplitudes, state.amplitudes)

    def test_encoding_matches_per_element_floats(self):
        amps = random_state(8, 31).amplitudes.copy()
        amps[5:7] = 0.0
        amps /= np.linalg.norm(amps)
        # signed zeros set after the division, which would drop their signs
        amps[5], amps[6] = complex(-0.0, -0.0), complex(0.0, -0.0)
        state = PureState(8, amps)
        per_element = [[float(a.real), float(a.imag)] for a in state.amplitudes]
        data = encode_state(state)
        assert json.loads(data) == {"n_qubits": 8, "amplitudes": per_element}
        assert b"[-0.0,-0.0],[0.0,-0.0]" in data

    def test_rejects_malformed_documents(self, tmp_path):
        bad = tmp_path / "bad.json"
        for doc, match in (({"n_qubits": 2}, "malformed"),
                           ({"n_qubits": 2, "amplitudes": "nope"}, "malformed"),
                           ({"n_qubits": 1, "amplitudes": [[10**400, 0], [0, 0]]}, "too large")):
            bad.write_text(json.dumps(doc))
            with pytest.raises(MalformedInput, match=match):
                load_state(bad)
        bad.write_text("{not json")
        with pytest.raises(MalformedInput, match="malformed"):
            load_state(bad)

    @pytest.mark.parametrize("body", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys())
    def test_load_raises_malformed_input_naming_the_path(self, tmp_path, body):
        path = tmp_path / "bad.json"
        path.write_bytes(body)
        with pytest.raises(MalformedInput, match=re.escape(f"malformed state file {path}: ")):
            load_state(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_amplitude_is_an_invalid_state(self, tmp_path, token):
        path = tmp_path / "nonfinite.json"
        path.write_text(f'{{"n_qubits": 1, "amplitudes": [[{token}, 0], [0, 0]]}}')
        with pytest.raises(ValueError, match="norm") as info:
            load_state(path)
        assert not isinstance(info.value, MalformedInput)

    def test_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_state(tmp_path / "missing.json")

    @pytest.mark.parametrize("n_qubits", [2.9, True, float("nan"), float("inf"), "2"])
    def test_rejects_non_integral_qubit_count(self, tmp_path, n_qubits):
        amps = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n_qubits": n_qubits, "amplitudes": amps}))
        with pytest.raises(MalformedInput, match="malformed"):
            load_state(path)

    def test_accepts_integral_float_qubit_count(self, tmp_path):
        amps = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n_qubits": 2.0, "amplitudes": amps}))
        assert load_state(path).n_qubits == 2
