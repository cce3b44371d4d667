"""Tests for the entanglement measure and Schmidt operations."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qent import (
    PureState,
    apply_unitary,
    cluster_state,
    ghz_state,
    product_state,
    q_direct,
    q_protocol_exact,
    q_purity,
    random_product_state,
    random_state,
    schmidt_number,
    schmidt_spectrum,
    w_state,
    wedge_distance,
)
from qent import measures
from qent.protocol import _joint_distribution, subset_purity_circuit, subset_purity_exact
from qent.states import subset_purities

from conftest import (
    bell_bell,
    brute_force_reduced,
    brute_force_wedge,
    haar_unitary,
    joint_outcome_distribution,
    oracle_purity,
    partial_trace,
    remainders,
)


class TestSplitOnQubit:
    """The projection split |psi> = |0>_k (x) u~ + |1>_k (x) v~ of the tests' remainders."""

    def test_basis_state(self):
        u, v = remainders(product_state([(1, 0), (1, 0)]), 0)
        assert np.allclose(u, [1, 0]) and np.allclose(v, [0, 0])

    def test_ghz2(self):
        u, v = remainders(ghz_state(2), 0)
        assert np.allclose(u, [1 / np.sqrt(2), 0])
        assert np.allclose(v, [0, 1 / np.sqrt(2)])

    def test_w3_middle_qubit(self):
        # remaining pair keeps order (qubit 0, qubit 2)
        u, v = remainders(w_state(3), 1)
        r = 1 / np.sqrt(3)
        assert np.allclose(u, [0, r, r, 0])  # |01>, |10> of the pair
        assert np.allclose(v, [r, 0, 0, 0])  # |00>

    def test_reassembles_the_state(self, rng):
        state = random_state(4, rng)
        for k in range(4):
            u, v = remainders(state, k)
            t = np.stack([u.reshape([2] * 3), v.reshape([2] * 3)])
            rebuilt = np.moveaxis(t, 0, k).reshape(-1)
            assert np.allclose(rebuilt, state.amplitudes, atol=1e-12)
            assert abs(np.vdot(u, u) + np.vdot(v, v) - 1) < 1e-10


def _normalized_pair(u, v):
    u, v = np.asarray(u), np.asarray(v)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-6 or nv < 1e-6:
        return None
    return u / nu, v / nv


_complex_elems = st.complex_numbers(
    max_magnitude=3.0, allow_nan=False, allow_infinity=False, allow_subnormal=False
)


@st.composite
def _vector_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    u = draw(st.lists(_complex_elems, min_size=n, max_size=n))
    v = draw(st.lists(_complex_elems, min_size=n, max_size=n))
    return np.array(u), np.array(v)


class TestWedgeDistance:
    def test_proportional_vectors_give_zero(self, rng):
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        for lam in (0.0, 1.0, -2.3, 0.7j):
            assert wedge_distance(u, lam * u) < 1e-20

    def test_two_dimensional_value(self):
        assert np.isclose(wedge_distance([1 / np.sqrt(2), 0], [0, 1 / np.sqrt(2)]), 0.25)

    @settings(max_examples=60, deadline=None)
    @given(_vector_pairs())
    def test_lagrange_identity(self, pair):
        # independent oracle: <u|u><v|v> - |<u|v>|^2, never used by the library
        pair = _normalized_pair(*pair)
        if pair is None:
            return
        u, v = pair
        expected = (np.vdot(u, u) * np.vdot(v, v) - abs(np.vdot(u, v)) ** 2).real
        assert abs(wedge_distance(u, v) - expected) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(_vector_pairs())
    def test_nonnegative(self, pair):
        u, v = pair
        assert wedge_distance(u, v) >= 0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            wedge_distance([1, 0], [1, 0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match=r"max \|u_i\| must be finite"):
            wedge_distance([bad, 1], [1, 0])
        with pytest.raises(ValueError, match=r"max \|v_i\| must be finite"):
            wedge_distance([1, 0], [0, complex(1, bad)])

    def test_large_finite_entries_are_accepted(self):
        # |u|^2 overflows, but the one pair term is u_0 v_1 - u_1 v_0 = -1
        assert wedge_distance([1e200, 1], [1, 0]) == 1.0


class TestWedgeBlocks:
    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 33])
    def test_ragged_blocks_match_pair_loop(self, monkeypatch, rng, size, rows):
        # a budget of `rows` complex rows splits most sizes into uneven blocks
        monkeypatch.setattr(measures, "_WEDGE_BLOCK_BYTES", rows * size * 16)
        u = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        expected = brute_force_wedge(u, v)
        assert abs(wedge_distance(u, v) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize(
        "make",
        [ghz_state, w_state, cluster_state, lambda n: random_state(n, 11)],
        ids=["ghz", "w", "cluster", "random"],
    )
    def test_default_budget_routes_agree_at_n11(self, make):
        n = 11
        half = 2 ** (n - 1)
        assert 16 * half * half > measures._WEDGE_BLOCK_BYTES  # several row blocks
        state = make(n)
        assert abs(q_direct(state) - q_purity(state)) < 1e-12

    def test_peak_memory_is_bounded(self, rng):
        size = 2048  # the full pair matrix would take 64 MiB
        u = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        tracemalloc.start()
        try:
            wedge_distance(u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestWedgeSum:
    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 33])
    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_stack_matches_pair_loops(self, monkeypatch, rng, m, size, rows):
        # a budget of `rows` rows of every pair in the stack, ragged for most sizes
        monkeypatch.setattr(measures, "_WEDGE_BLOCK_BYTES", rows * m * size * 16)
        us = rng.standard_normal((m, size)) + 1j * rng.standard_normal((m, size))
        vs = rng.standard_normal((m, size)) + 1j * rng.standard_normal((m, size))
        expected = np.array([brute_force_wedge(u, v) for u, v in zip(us, vs)])
        assert np.all(np.abs(wedge_distance(us, vs) - expected) <= 1e-12 * expected)

    def test_stack_keeps_its_leading_shape(self, rng):
        us = rng.standard_normal((2, 3, 5)) + 1j * rng.standard_normal((2, 3, 5))
        vs = rng.standard_normal((2, 3, 5)) + 1j * rng.standard_normal((2, 3, 5))
        d = wedge_distance(us, vs)
        assert d.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert d[idx] == pytest.approx(wedge_distance(us[idx], vs[idx]), rel=1e-14)
        with pytest.raises(ValueError, match="vector shapes differ"):
            wedge_distance(us, vs[0])

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize(
        "make",
        [ghz_state, w_state, cluster_state, lambda n: random_state(n, 5)],
        ids=["ghz", "w", "cluster", "random"],
    )
    def test_q_direct_equals_one_pair_per_qubit(self, make, n):
        state = make(n)
        expected = 4 / n * sum(wedge_distance(*remainders(state, k)) for k in range(n))
        assert abs(q_direct(state) - expected) <= 1e-13 * expected

    def test_q_direct_peak_memory_is_bounded(self):
        # the full pair matrices would take 256 MiB each; the stacks, the
        # kernel's right operand and its block stay within about 1 MiB
        state = random_state(13, 3)
        tracemalloc.start()
        try:
            q_direct(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@st.composite
def _sparse_states(draw):
    # random amplitudes on a random support: from basis states up to dense ones
    n = draw(st.integers(min_value=2, max_value=8))
    support = draw(st.integers(min_value=1, max_value=2**n))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    amps = np.zeros(2**n, dtype=complex)
    idx = gen.choice(2**n, size=support, replace=False)
    amps[idx] = gen.standard_normal(support) + 1j * gen.standard_normal(support)
    return PureState(n, amps / np.linalg.norm(amps))


class TestDirectCap:
    def test_cap_is_checked_before_any_split(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("_wedge_sum ran")

        monkeypatch.setattr(measures, "_wedge_sum", forbidden)
        assert measures.DIRECT_MAX_QUBITS == 16
        with pytest.raises(ValueError, match=r"DIRECT_MAX_QUBITS = 16 .*q_purity"):
            q_direct(product_state([(1, 0)] * 17))
        # at the cap the route proceeds to its first kernel call
        with pytest.raises(AssertionError, match="_wedge_sum ran"):
            q_direct(ghz_state(16))


class TestQRoutes:
    def test_product_states_have_zero_q(self, rng):
        for n in (2, 3, 5):
            state = random_product_state(n, rng)
            assert q_direct(state) < 1e-12
            assert abs(q_purity(state)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_ghz_is_maximal(self, n):
        assert abs(q_direct(ghz_state(n)) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_w_formula(self, n):
        expected = 4 * (n - 1) / n**2
        assert abs(q_direct(w_state(n)) - expected) < 1e-12
        assert abs(q_purity(w_state(n)) - expected) < 1e-12

    @pytest.mark.parametrize("sign", [1, -1])
    def test_norm_tolerance_matches_the_purity_routes(self, sign):
        # every reduced state of psi has trace <psi|psi>, which PureState
        # bounds within 1e-10 of 1; rounding can carry that trace past the
        # equal TRACE_ATOL of DensityMatrix, so the purity routes, which run
        # no density check, must answer every accepted state
        amps = ghz_state(3).amplitudes
        with pytest.raises(ValueError, match="norm"):
            PureState(3, amps * (1 + sign * 0.9e-10))
        edge = PureState(3, amps * np.sqrt(1 + sign * 0.9e-10))
        for q in (q_direct(edge), q_purity(edge), q_protocol_exact(edge)):
            assert abs(q - 1.0) < 1e-9
        # the circuit oracles hold two copies of the state, squared norm 1 +- 1.8e-10
        joint = joint_outcome_distribution(edge)
        assert np.max(np.abs(joint - _joint_distribution(edge))) < 1e-9
        for subset in ([0], [0, 2]):
            circuit = subset_purity_circuit(edge, subset)
            assert abs(circuit - subset_purity_exact(edge, subset)) < 1e-9
        rng = np.random.default_rng(26)
        for n in range(2, 7):
            bits = (np.arange(2**n)[:, np.newaxis] >> np.arange(n - 1, -1, -1)) & 1
            for _ in range(6):
                amps = random_state(n, rng).amplitudes * np.sqrt(1 + sign * 1e-10)
                try:
                    edge = PureState(n, amps)
                except ValueError:
                    continue
                # every route reads psi / |psi|: the purities of psi divided by
                # <psi|psi>^2, and det(rho_k) = (<psi|psi>^2 - Tr[rho_k^2]) / 2 likewise
                # (the routes round apart by up to about 2e-15 at n = 6)
                norm2 = np.vdot(edge.amplitudes, edge.amplitudes).real
                want = q_direct(edge)
                for q in (q_purity(edge), q_protocol_exact(edge)):
                    assert np.isfinite(q) and abs(q - want) < 1e-14
                purities = {}
                for m in range(1, n + 1):
                    subsets = list(itertools.combinations(range(n), m))
                    got = subset_purities(edge, subsets)
                    oracle = [np.sum(np.abs(brute_force_reduced(edge, s)) ** 2) / norm2**2
                              for s in subsets]
                    assert np.isfinite(got).all() and np.max(np.abs(got - oracle)) < 1e-12
                    purities.update(zip(subsets, oracle))
                # each ancilla reads "1" with p(-) = (1 - Tr[rho_k^2]) / 2, n Q / 4 in all
                joint = _joint_distribution(edge)
                assert np.isfinite(joint).all()
                p_minus = [(1 - purities[(k,)]) / 2 for k in range(n)]
                assert np.max(np.abs(joint @ bits - p_minus)) < 1e-12
                assert abs(joint @ bits.sum(axis=1) - n * want / 4) < 1e-12

    def test_bell_bell_and_ghz4_both_maximal(self):
        assert abs(q_purity(bell_bell()) - 1.0) < 1e-12
        assert abs(q_purity(ghz_state(4)) - 1.0) < 1e-12

    def test_route_equivalence_on_random_states(self, rng):
        for n in (2, 3, 4, 5):
            for _ in range(10):
                state = random_state(n, rng)
                assert abs(q_direct(state) - q_purity(state)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(_sparse_states())
    def test_three_routes_agree(self, state):
        values = [q_direct(state), q_purity(state), q_protocol_exact(state)]
        assert max(values) - min(values) < 1e-10

    def test_haar_average(self, rng):
        # <Q> = (2^n - 2) / (2^n + 1) over Haar-random states (Scott, PRA 69, 052330 (2004))
        n, samples = 6, 2000
        qs = np.array([q_purity(random_state(n, rng)) for _ in range(samples)])
        expected = (2**n - 2) / (2**n + 1)
        std_error = qs.std(ddof=1) / np.sqrt(samples)
        assert abs(qs.mean() - expected) < 5 * std_error

    def test_split_distance_equals_purity_deficit(self, rng):
        # per-qubit identity D_k = (1 - Tr[rho_k^2]) / 2
        for _ in range(5):
            state = random_state(4, rng)
            for k in range(4):
                d = wedge_distance(*remainders(state, k))
                deficit = (1 - oracle_purity(state, [k])) / 2
                assert abs(d - deficit) < 1e-10

    def test_local_unitary_invariance(self, rng):
        for _ in range(10):
            state = random_state(4, rng)
            before = q_direct(state)
            for k in range(4):
                state = apply_unitary(state, haar_unitary(2, rng), [k])
            assert abs(q_direct(state) - before) < 1e-9

    def test_range(self, rng):
        for _ in range(20):
            q = q_direct(random_state(int(rng.integers(2, 6)), rng))
            assert -1e-12 <= q <= 1 + 1e-10

    def test_zero_characterization(self, rng):
        # Q vanishes exactly when every single-qubit marginal stays pure
        prod = random_product_state(4, rng)
        assert q_purity(prod) < 1e-9
        assert all(oracle_purity(prod, [k]) > 1 - 1e-9 for k in range(4))
        ent = ghz_state(4)
        assert q_purity(ent) > 1e-9
        assert any(oracle_purity(ent, [k]) < 1 - 1e-9 for k in range(4))

    def test_rejects_single_qubit(self, rng):
        with pytest.raises(ValueError):
            q_direct(random_state(1, rng))
        with pytest.raises(ValueError):
            q_purity(random_state(1, rng))


class TestSchmidt:
    def test_product_cut_has_trivial_spectrum(self, rng):
        state = random_product_state(4, rng)
        spec = schmidt_spectrum(state, [0, 1])
        assert np.isclose(spec[0], 1.0, atol=1e-10)
        assert np.allclose(spec[1:], 0, atol=1e-10)

    def test_ghz_any_cut_two_equal_coefficients(self):
        for n in (2, 3, 4, 5):
            for part_a in ([0], [n - 1], list(range(n // 2))):
                spec = schmidt_spectrum(ghz_state(n), part_a)
                assert np.allclose(spec[:2], 1 / np.sqrt(2), atol=1e-12)
                assert np.allclose(spec[2:], 0, atol=1e-12)

    def test_bell_single_qubit_cut(self, rng):
        from conftest import bell_pair

        spec = schmidt_spectrum(bell_pair(), [0])
        assert np.allclose(spec**2, [0.5, 0.5])
        assert np.isclose(oracle_purity(bell_pair(), [0]), 0.5)

    def test_squared_values_match_reduced_eigenvalues(self, rng):
        state = random_state(5, rng)
        for part_a in ([0], [1, 3], [0, 2, 4]):
            sq = np.sort(schmidt_spectrum(state, part_a) ** 2)[::-1]
            eig = np.sort(np.linalg.eigvalsh(partial_trace(state, part_a)))[::-1]
            padded = np.zeros(eig.size)
            padded[: sq.size] = sq  # the cut can have fewer coefficients than dim(A)
            assert np.allclose(padded, eig, atol=1e-9)
            assert abs(np.sum(sq) - 1.0) < 1e-9

    def test_sorted_descending(self, rng):
        spec = schmidt_spectrum(random_state(4, rng), [0, 2])
        assert np.all(np.diff(spec) <= 1e-15)

    def test_schmidt_number_values(self):
        for n in (2, 3, 4):
            assert schmidt_number(ghz_state(n), [0]) == 2
        assert schmidt_number(bell_bell(), [0, 1]) == 1
        assert schmidt_number(ghz_state(4), [0, 1]) == 2

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), "1e-8", -1e-8, None, True],
                             ids=repr)
    def test_schmidt_number_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be"):
            schmidt_number(ghz_state(3), [0], tol=tol)

    def test_schmidt_number_zero_tol(self):
        assert schmidt_number(ghz_state(3), [0], tol=0) == 2

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_cluster_cut_ranks(self, n):
        # A contiguous cut of a line crosses one edge, so its Schmidt number
        # is always 2; the alternating (even|odd) cut crosses every edge and
        # attains the maximal 2**(n//2).
        state = cluster_state(n)
        assert schmidt_number(state, list(range(n // 2))) == 2
        assert schmidt_number(state, list(range(0, n, 2))) == 2 ** (n // 2)

    def test_rejects_empty_or_full_subset(self, rng):
        state = random_state(3, rng)
        with pytest.raises(ValueError):
            schmidt_spectrum(state, [])
        with pytest.raises(ValueError):
            schmidt_spectrum(state, [0, 1, 2])
