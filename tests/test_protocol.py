"""Tests for the measurement-protocol simulation."""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from qent import (
    DensityMatrix,
    ProtocolRun,
    PureState,
    apply_unitary,
    canonical_cswap,
    cluster_state,
    convergence_sweep,
    copy_marginal,
    ghz_state,
    minus_probabilities,
    product_state,
    purity,
    q_protocol_exact,
    q_protocol_sampled,
    q_purity,
    random_product_state,
    random_state,
    subset_purity_circuit,
    subset_purity_exact,
    swap_test_post_state,
    w_state,
)
from qent import protocol
from qent.protocol import (
    JOINT_MODE_MAX_QUBITS,
    MODE_EXACT_MARGINAL,
    MODE_FULL_JOINT,
    MAX_TRIALS,
    MODES,
    OutcomeTally,
    _controlled_swaps,
    _swap_operator,
    run_report,
    sweep_csv,
    tally_outcomes,
)

from conftest import (
    bell_bell,
    bell_pair,
    brute_force_reduced,
    joint_outcome_distribution,
    oracle_purity,
    random_density,
)


class TestSwapTestExact:
    """p(+) = (1 + Tr[rho_k^2]) / 2 of one qubit's swap test, exactly and by the circuit."""

    @staticmethod
    def p_plus(state, k):
        exact = 1.0 - minus_probabilities(state)[k]
        circuit = (1.0 + subset_purity_circuit(state, [k])) / 2.0
        assert abs(exact - circuit) < 1e-9
        return exact

    def test_pure_state_always_plus(self, rng):
        state = random_product_state(3, rng)
        for k in range(3):
            assert np.isclose(self.p_plus(state, k), 1.0)

    def test_maximally_mixed_qubit(self):
        for k in range(2):
            assert np.isclose(self.p_plus(bell_pair(), k), 0.75)

    def test_ghz3_reduced_qubit(self):
        assert np.isclose(self.p_plus(ghz_state(3), 1), 0.75)


class TestSwapTestPostState:
    def test_pure_input_plus_outcome_unchanged(self, rng):
        psi = random_state(1, rng).amplitudes
        rho = DensityMatrix(2, np.outer(psi, psi.conj()))
        out = swap_test_post_state(rho, "plus")
        assert np.allclose(out.entries, np.kron(rho.entries, rho.entries), atol=1e-12)

    def test_pure_input_minus_outcome_rejected(self, rng):
        psi = random_state(1, rng).amplitudes
        rho = DensityMatrix(2, np.outer(psi, psi.conj()))
        with pytest.raises(ValueError, match="probability"):
            swap_test_post_state(rho, "minus")

    def test_maximally_mixed_minus_gives_singlet(self):
        out = swap_test_post_state(DensityMatrix(2, np.eye(2) / 2), "minus")
        singlet = np.zeros(4, dtype=complex)
        singlet[1], singlet[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        assert np.allclose(out.entries, np.outer(singlet, singlet.conj()), atol=1e-12)
        assert np.allclose(copy_marginal(out, "a").entries, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("outcome,sign", [("plus", 1), ("minus", -1)])
    def test_output_is_swap_eigenstate(self, dim, outcome, sign, rng):
        rho = random_density(dim, rng)
        out = swap_test_post_state(rho, outcome)
        swap = _swap_operator(dim)
        assert np.max(np.abs(swap @ out.entries - sign * out.entries)) < 1e-9
        assert abs(np.trace(out.entries) - 1.0) < 1e-9

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("outcome,sign", [("plus", 1), ("minus", -1)])
    def test_reduced_output_formula(self, dim, outcome, sign, rng):
        rho = random_density(dim, rng)
        out = swap_test_post_state(rho, outcome)
        p = (1 + sign * purity(rho)) / 2
        expected = (rho.entries + sign * rho.entries @ rho.entries) / (2 * p)
        assert np.max(np.abs(copy_marginal(out, "a").entries - expected)) < 1e-9
        assert np.max(np.abs(copy_marginal(out, "b").entries - expected)) < 1e-9

    def test_repeated_test_reveals_nothing_new(self, rng):
        # the post-state is a SWAP eigenstate, so the same outcome recurs
        rho = random_density(2, rng)
        for outcome, sign in (("plus", 1), ("minus", -1)):
            out = swap_test_post_state(rho, outcome)
            swap = _swap_operator(2)
            projector = (np.eye(4) + sign * swap) / 2
            p_same = np.trace(projector @ out.entries).real
            assert abs(p_same - 1.0) < 1e-9

    def test_rejects_unknown_outcome(self, rng):
        with pytest.raises(ValueError, match="outcome"):
            swap_test_post_state(random_density(2, rng), "zero")


class TestProtocolExact:
    def test_product_state_gives_zero(self, rng):
        assert q_protocol_exact(random_product_state(4, rng)) < 1e-12

    def test_ghz4_counting_identity(self):
        # mean count of 1s per shot is n*Q/4 = 1 for GHZ_4
        state = ghz_state(4)
        assert np.isclose(q_protocol_exact(state), 1.0)
        assert np.isclose(np.sum(minus_probabilities(state)), 1.0)

    def test_w4_value(self):
        assert np.isclose(q_protocol_exact(w_state(4)), 0.75)

    def test_matches_purity_route(self, rng):
        for n in (2, 3, 5):
            state = random_state(n, rng)
            assert abs(q_protocol_exact(state) - q_purity(state)) < 1e-10

    def test_rejects_single_qubit(self, rng):
        state = random_state(1, rng)
        with pytest.raises(ValueError):
            q_protocol_exact(state)
        for estimator in (q_protocol_sampled, run_report):
            with pytest.raises(ValueError, match="n >= 2"):
                estimator(ProtocolRun(state, 100, 0))


class TestSampling:
    def test_product_state_estimates_exactly_zero(self, rng):
        state = random_product_state(3, rng)
        for seed in (0, 1, 99):
            stats = q_protocol_sampled(ProtocolRun(state, 2000, seed))
            assert stats.estimate == 0.0
            assert stats.std_error == 0.0

    def test_ghz3_converges(self):
        stats = q_protocol_sampled(ProtocolRun(ghz_state(3), 100_000, 7))
        assert stats.std_error < 0.01
        assert abs(stats.estimate - 1.0) < 3 * stats.std_error + 1e-12

    def test_same_seed_is_bit_identical(self):
        run = ProtocolRun(w_state(3), 5000, 42)
        a = q_protocol_sampled(run)
        b = q_protocol_sampled(ProtocolRun(w_state(3), 5000, 42))
        assert a == b

    def test_joint_mode_same_seed_identical(self):
        run = ProtocolRun(ghz_state(2), 3000, 5, MODE_FULL_JOINT)
        a, b = tally_outcomes(run), tally_outcomes(run)
        assert np.array_equal(a.minus_counts, b.minus_counts)
        assert np.array_equal(a.count_histogram, b.count_histogram)

    def test_unbiased_over_seeds(self):
        state = w_state(3)
        q_exact = q_purity(state)
        estimates, errors = [], []
        for seed in range(50):
            stats = q_protocol_sampled(ProtocolRun(state, 10_000, seed))
            estimates.append(stats.estimate)
            errors.append(stats.std_error)
        pooled = np.mean(errors) / np.sqrt(len(estimates))
        assert abs(np.mean(estimates) - q_exact) < 4 * pooled

    def test_joint_marginals_match_exact_probabilities(self):
        state = ghz_state(3)
        n_trials = 10_000
        tally = tally_outcomes(ProtocolRun(state, n_trials, 11, MODE_FULL_JOINT))
        freq = tally.minus_counts / n_trials
        p = minus_probabilities(state)
        bounds = 4 * np.sqrt(p * (1 - p) / n_trials)
        assert np.all(np.abs(freq - p) <= bounds)

    def test_joint_distribution_is_normalized_and_consistent(self, rng):
        state = random_state(3, rng)
        probs = joint_outcome_distribution(state)
        assert probs.size == 8 and abs(probs.sum() - 1.0) < 1e-12
        # marginal of ancilla j from the joint distribution = exact p(-)_j
        p = minus_probabilities(state)
        t = probs.reshape(2, 2, 2)
        marginals = [t.sum(axis=tuple(a for a in range(3) if a != j))[1] for j in range(3)]
        assert np.allclose(marginals, p, atol=1e-10)

    def test_joint_outcomes_are_correlated(self):
        # the columns share the two state registers, so ancilla outcomes
        # need not be independent; the estimator uses only the marginals
        state = ghz_state(3)
        joint = joint_outcome_distribution(state)
        p = minus_probabilities(state)
        product = np.ones(8)
        for i in range(8):
            for k in range(3):
                bit = (i >> (2 - k)) & 1
                product[i] *= p[k] if bit else 1 - p[k]
        assert np.max(np.abs(joint - product)) > 0.1

    def test_full_joint_feasibility_bound(self, rng):
        state = random_state(JOINT_MODE_MAX_QUBITS + 1, rng)
        with pytest.raises(ValueError,
                           match=f"full-joint.*JOINT_MODE_MAX_QUBITS = {JOINT_MODE_MAX_QUBITS}"):
            ProtocolRun(state, 10, 0, MODE_FULL_JOINT)

    @pytest.mark.parametrize("n", [5, JOINT_MODE_MAX_QUBITS])
    def test_full_joint_runs_up_to_the_cap(self, rng, n):
        state = random_state(n, rng)
        run = ProtocolRun(state, 100_000, 3, MODE_FULL_JOINT)
        stats = q_protocol_sampled(run)
        assert stats == q_protocol_sampled(run)
        assert abs(stats.estimate - q_purity(state)) < 5 * stats.std_error

    def test_run_validation(self, rng):
        state = random_state(2, rng)
        with pytest.raises(ValueError):
            ProtocolRun(state, 0, 0)
        with pytest.raises(ValueError):
            ProtocolRun(state, 10, -1)
        with pytest.raises(ValueError):
            ProtocolRun(state, 10, 0, "sideways")


class TestJointTable:
    """The production joint distribution, read from the subset-purity table."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_circuit_simulation(self, rng, n):
        for state in (random_state(n, rng), cluster_state(n), ghz_state(n), w_state(n),
                      random_product_state(n, rng)):
            got = protocol._joint_distribution(state)
            assert np.max(np.abs(got - joint_outcome_distribution(state))) < 1e-12

    @pytest.mark.parametrize("n", range(2, JOINT_MODE_MAX_QUBITS + 1))
    def test_ghz_closed_form(self, n):
        # Tr[rho_S^2] = 1/2 on every proper nonempty subset
        weight = protocol._bits(np.arange(2**n), n).sum(axis=1)
        want = np.where(weight % 2 == 0, 2.0**-n, 0.0)
        want[0] = 0.5 + 2.0**-n
        assert np.max(np.abs(protocol._joint_distribution(ghz_state(n)) - want)) < 1e-12

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_marginals_and_mean_count(self, rng, n):
        for state in (random_state(n, rng), cluster_state(n), w_state(n)):
            probs = protocol._joint_distribution(state)
            bits = protocol._bits(np.arange(2**n), n)
            assert probs.min() >= 0.0 and abs(probs.sum() - 1.0) < 1e-12
            assert np.max(np.abs(probs @ bits - minus_probabilities(state))) < 1e-12
            assert abs(probs @ bits.sum(axis=1) - n * q_purity(state) / 4) < 1e-12

    def test_samplers_never_run_the_circuit_simulation(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a circuit simulation ran")

        monkeypatch.setattr(protocol, "_controlled_swaps", forbidden)
        run = ProtocolRun(ghz_state(3), 1000, 1, MODE_FULL_JOINT)
        tally_outcomes(run)


def one_shot_outcomes(run: ProtocolRun) -> np.ndarray:
    """Reference stream: every trial in one draw, as a single block."""
    return streamed_outcomes(run, run.n_trials)


def streamed_outcomes(run: ProtocolRun, rows: int) -> np.ndarray:
    """Reference stream read from the run's generator `rows` trials at a time."""
    n = run.state.n_qubits
    rng = np.random.default_rng(run.seed)
    sizes = [min(rows, run.n_trials - start) for start in range(0, run.n_trials, rows)]
    if run.mode == MODE_FULL_JOINT:
        probs = joint_outcome_distribution(run.state)
        draws = np.concatenate([rng.choice(probs.size, size=size, p=probs) for size in sizes])
        return ((draws[:, np.newaxis] >> np.arange(n - 1, -1, -1)) & 1).astype(bool)
    p_minus = minus_probabilities(run.state)[np.newaxis, :]
    return np.concatenate([rng.random((size, n)) < p_minus for size in sizes])


def tally_of(outcomes: np.ndarray) -> OutcomeTally:
    """The tally of an explicit (trials x n) outcome matrix."""
    counts = outcomes.sum(axis=1)
    histogram = np.bincount(counts, minlength=outcomes.shape[1] + 1)
    return OutcomeTally(outcomes.sum(axis=0), histogram)


def is_realizable(tally: OutcomeTally, n_trials: int) -> bool:
    """Gale-Ryser: some 0/1 (n_trials x n) matrix has these column sums and row-sum histogram."""
    hist = [int(h) for h in tally.count_histogram]
    columns = sorted((int(c) for c in tally.minus_counts), reverse=True)
    if min(hist) < 0 or min(columns) < 0 or sum(hist) != n_trials:
        return False
    if sum(columns) != sum(k * h for k, h in enumerate(hist)):
        return False
    return all(
        sum(columns[:k]) <= sum(min(m, k) * h for m, h in enumerate(hist))
        for k in range(1, len(columns) + 1)
    )


def exact_tally_pmf(run: ProtocolRun) -> dict:
    """pmf of the tally, summed over all 2^(n*T) per-trial outcome matrices."""
    n, n_trials = run.state.n_qubits, run.n_trials
    if run.mode == MODE_FULL_JOINT:
        row_probs = joint_outcome_distribution(run.state)
    else:
        p = minus_probabilities(run.state)
        row_probs = [
            np.prod([p[j] if (row >> (n - 1 - j)) & 1 else 1 - p[j] for j in range(n)])
            for row in range(2**n)
        ]
    pmf = {}
    for rows in itertools.product(range(2**n), repeat=n_trials):
        outcomes = (np.array(rows)[:, np.newaxis] >> np.arange(n - 1, -1, -1)) & 1
        key = tally_key(tally_of(outcomes))
        pmf[key] = pmf.get(key, 0.0) + np.prod([row_probs[r] for r in rows])
    return pmf


def tally_key(tally: OutcomeTally) -> tuple:
    return tuple(int(c) for c in tally.minus_counts), tuple(int(h) for h in tally.count_histogram)


class TestOutcomeBlocks:
    @pytest.fixture
    def run(self, mode, n_trials):
        return ProtocolRun(random_state(3, 29), n_trials, 1000 + n_trials, mode)

    @pytest.fixture(params=[1, 2, 3], ids=lambda r: f"rows{r}")
    def stream(self, request, run):
        # the run's generator read in blocks of `rows` trials
        return streamed_outcomes(run, request.param)

    @pytest.fixture(params=MODES)
    def mode(self, request):
        return request.param

    @pytest.fixture(params=[1, 7, 1000])
    def n_trials(self, request):
        return request.param

    def test_stream_equals_one_shot_draw(self, stream, run):
        # the per-trial oracle reads the generator in blocks as in one draw,
        # so every block size below names the same stream
        assert stream.dtype == bool
        assert np.array_equal(stream, one_shot_outcomes(run))

    def test_tally_counts_the_stream(self, stream, run):
        # the tally is the count of some T-trial stream; a drawn stream's own
        # count passes the same check
        assert is_realizable(tally_outcomes(run), run.n_trials)
        assert is_realizable(tally_of(stream), run.n_trials)

    def test_estimates_match_outcome_matrix(self, stream, run):
        outcomes = stream
        per_trial = 4.0 / run.state.n_qubits * outcomes.sum(axis=1)
        mean = per_trial.mean()
        se = per_trial.std(ddof=1) / np.sqrt(run.n_trials) if run.n_trials > 1 else 0.0
        stats = protocol._estimate(tally_of(outcomes))
        assert abs(stats.estimate - mean) <= 1e-12 * abs(mean)
        assert abs(stats.std_error - se) <= 1e-12 * se
        assert stats.n_trials == run.n_trials
        # the sampled estimators read the drawn tally through the same estimator
        tally = tally_outcomes(run)
        expected = protocol._estimate(tally)
        doc = run_report(run)
        assert q_protocol_sampled(run) == expected
        assert (doc["q_estimate"], doc["std_error"]) == (expected.estimate, expected.std_error)
        assert doc["p_minus_per_qubit"] == [int(c) / run.n_trials for c in tally.minus_counts]

    @pytest.mark.parametrize("n,mode", [(10, MODE_EXACT_MARGINAL), (4, MODE_FULL_JOINT)])
    def test_run_report_memory_does_not_grow_with_trials(self, n, mode):
        # one draw of all trials peaks at about 86 MiB at n = 10
        run = ProtocolRun(random_state(n, 3), 1_000_000, 8, mode)
        tracemalloc.start()
        try:
            run_report(run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestTallyDistribution:
    @pytest.mark.parametrize(
        "n,n_trials,mode",
        [(3, 2, MODE_EXACT_MARGINAL), (2, 3, MODE_FULL_JOINT), (3, 2, MODE_FULL_JOINT)],
    )
    def test_tally_follows_exact_pmf(self, n, n_trials, mode):
        state = random_state(n, 31 if n == 3 else 27)
        pmf = exact_tally_pmf(ProtocolRun(state, n_trials, 0, mode))
        assert abs(sum(pmf.values()) - 1.0) < 1e-12
        seeds = range(3000)
        observed = dict.fromkeys(pmf, 0)
        for seed in seeds:
            key = tally_key(tally_outcomes(ProtocolRun(state, n_trials, seed, mode)))
            assert key in observed, f"seed {seed} drew an impossible tally {key}"
            observed[key] += 1
        # pool the tallies expected fewer than 5 times into one cell
        rare = [key for key in pmf if pmf[key] * len(seeds) < 5]
        cells = [[key] for key in pmf if key not in rare] + ([rare] if rare else [])
        f_obs = [sum(observed[key] for key in cell) for cell in cells]
        f_exp = [len(seeds) * sum(pmf[key] for key in cell) for cell in cells]
        assert len(cells) >= 3
        assert scipy_stats.chisquare(f_obs, f_exp).pvalue > 1e-6

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_trials", [1, 2, 10**6, 10**15, MAX_TRIALS])
    def test_tally_invariants(self, mode, n_trials):
        state = random_state(4, 5)
        tally = tally_outcomes(ProtocolRun(state, n_trials, 3, mode))
        hist = [int(h) for h in tally.count_histogram]
        minus = [int(c) for c in tally.minus_counts]
        assert len(hist) == 5 and len(minus) == 4
        assert sum(hist) == n_trials and min(hist) >= 0
        assert sum(minus) == sum(k * h for k, h in enumerate(hist))
        assert 0 <= min(minus) and max(minus) <= n_trials

    def test_clips_rounded_probabilities(self, monkeypatch):
        # a pure reduced state can give p(-) just below 0, and float sums just above 1
        monkeypatch.setattr(
            protocol, "minus_probabilities", lambda state: np.array([-1e-17, 1 + 1e-16, 0.5])
        )
        tally = tally_outcomes(ProtocolRun(ghz_state(3), 1000, 4))
        assert tally.minus_counts[0] == 0 and tally.minus_counts[1] == 1000
        assert tally.count_histogram[0] == 0 and tally.count_histogram[3] == 0

    def test_rejects_trials_beyond_int64(self):
        state = ghz_state(2)
        with pytest.raises(ValueError, match="int64"):
            ProtocolRun(state, 2**60 + 1, 0)
        with pytest.raises(ValueError, match="int64"):
            ProtocolRun(state, 10**20, 0)
        assert ProtocolRun(state, 2**60, 0).n_trials == MAX_TRIALS

    @pytest.mark.parametrize("n_trials", [2.7, True])
    def test_rejects_non_integer_trials(self, n_trials):
        with pytest.raises(ValueError, match="integer"):
            ProtocolRun(ghz_state(2), n_trials, 0)
        assert ProtocolRun(ghz_state(2), np.int64(3), 0).n_trials == 3

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ProtocolRun(ghz_state(2), 10, seed)


class TestSubsetPurity:
    def test_bell_bell_subset_is_pure(self):
        assert abs(subset_purity_exact(bell_bell(), [0, 1]) - 1.0) < 1e-9

    def test_ghz4_subset_is_mixed(self):
        assert abs(subset_purity_exact(ghz_state(4), [0, 1]) - 0.5) < 1e-9

    def test_singleton_matches_per_qubit_swap_test(self, rng):
        state = random_state(3, rng)
        for k in range(3):
            direct = subset_purity_exact(state, [k])
            assert abs(direct - oracle_purity(state, [k])) < 1e-12
            circuit = subset_purity_circuit(state, [k])
            expected_p_plus = 1 - minus_probabilities(state)[k]
            assert abs((1 + circuit) / 2 - expected_p_plus) < 1e-9

    def test_whole_register_purity_is_one(self, rng):
        state = random_state(3, rng)
        assert abs(subset_purity_exact(state, [0, 1, 2]) - 1.0) < 1e-9

    def test_circuit_agrees_with_direct_on_random_states(self, rng):
        for _ in range(5):
            state = random_state(4, rng)
            for subset in ([0], [1, 3], [0, 1, 2]):
                direct = subset_purity_exact(state, subset)
                circuit = subset_purity_circuit(state, subset)
                assert abs(direct - circuit) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_compiled_swaps_equal_the_gates_times_their_phase(self, rng, n):
        # each compiled c-SWAP is the canonical gate times e^{-i pi/8}; every
        # column set fits, as m + 2n <= 12 < CIRCUIT_MAX_QUBITS
        state = random_state(n, rng)
        doubled = np.kron(state.amplitudes, state.amplitudes)
        for m in range(1, n + 1):
            for columns in itertools.combinations(range(n), m):
                control = random_state(m, rng).amplitudes
                reference = PureState(m + 2 * n, np.kron(control, doubled))
                for j, q in enumerate(columns):
                    reference = apply_unitary(reference, canonical_cswap(0, 1, 2, 3),
                                              [j, m + q, m + n + q])
                got = _controlled_swaps(lambda: control, state, columns).amplitudes
                want = reference.amplitudes * np.exp(-1j * np.pi * m / 8)
                assert np.max(np.abs(got - want)) < 1e-13

    def test_rejects_empty_subset(self, rng):
        with pytest.raises(ValueError):
            subset_purity_exact(random_state(2, rng), [])

    def test_circuit_rejects_oversized_problem(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a pulse ran before the size check")

        state = random_state(7, rng)  # 2 + 14 > 14
        monkeypatch.setattr(protocol, "_apply_pulses", forbidden)
        with pytest.raises(ValueError, match="circuit"):
            subset_purity_circuit(state, [0, 1])

    def test_exact_skips_infeasible_circuit(self, rng):
        state = random_state(7, rng)
        value = subset_purity_exact(state, [0, 1])
        assert abs(value - oracle_purity(state, [0, 1])) < 1e-15

    def test_exact_runs_no_circuit(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("subset_purity_exact must not run the circuit")

        monkeypatch.setattr(protocol, "subset_purity_circuit", forbidden)
        state = random_state(3, rng)
        for subset in ([0], [0, 2], [0, 1, 2]):
            rho = brute_force_reduced(state, subset)
            expected = float(np.sum(np.abs(rho) ** 2))
            assert abs(subset_purity_exact(state, subset) - expected) < 1e-12

    def test_purity_routes_run_no_eigen_decomposition(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a purity route ran an eigen-decomposition")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        n, amps = 6, random_state(6, rng).amplitudes
        subsets = [s for m in range(1, n + 1) for s in itertools.combinations(range(n), m)]
        routes = [q_purity, q_protocol_exact,
                  lambda state: [subset_purity_exact(state, s) for s in subsets]]
        routes += [lambda state, mode=mode: run_report(ProtocolRun(state, 1000, 0, mode))
                   for mode in MODES]
        for route in routes:
            route(PureState(n, amps))  # a fresh state, with no purities remembered


class TestConvergenceSweep:
    def test_product_state_has_zero_errors(self, rng):
        for state in (product_state([(1, 0)] * 3), product_state([(0, 1), (1, 0)])):
            rows = convergence_sweep(state, [10, 100, 1000], seed=3)
            assert [r[0] for r in rows] == [10, 100, 1000]
            assert all(err == 0.0 for _, err in rows)
        # non-basis product factors carry float dust; errors stay at that scale
        rows = convergence_sweep(random_product_state(3, rng), [10, 100], seed=3)
        assert all(err < 1e-12 for _, err in rows)

    def test_w3_large_sample_is_accurate(self):
        rows = convergence_sweep(w_state(3), [1_000_000], seed=12)
        assert rows[0][1] < 0.005

    def test_reproducible(self):
        a = convergence_sweep(ghz_state(2), [100, 1000], seed=9)
        b = convergence_sweep(ghz_state(2), [100, 1000], seed=9)
        assert a == b

    def test_rejects_empty_counts(self):
        with pytest.raises(ValueError, match="at least one"):
            convergence_sweep(ghz_state(2), [], seed=0)

    def test_rejects_descending_counts(self):
        with pytest.raises(ValueError, match="ascending"):
            convergence_sweep(ghz_state(2), [1000, 100], seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_checks_seed_before_any_substream(self, seed):
        with pytest.raises(ValueError, match="seed must be a"):
            convergence_sweep(ghz_state(2), [10, 20], seed=seed)

    def test_csv_format(self):
        text = sweep_csv([(100, 0.25), (1000, 0.0125)])
        lines = text.strip().split("\n")
        assert lines[0] == "n_trials,abs_error"
        assert lines[1].startswith("100,0.25")
        # integral floats are parsed, and the rows carry the parsed counts
        rows = convergence_sweep(ghz_state(2), [10.0, 100.0], seed=5.0)
        assert rows == convergence_sweep(ghz_state(2), [10, 100], seed=5)
        assert sweep_csv(rows).split("\n")[1].startswith("10,")


class TestRunReport:
    def test_report_fields(self):
        run = ProtocolRun(ghz_state(3), 4000, 21)
        doc = run_report(run, state_ref="ghz3.json")
        assert doc["state"] == "ghz3.json"
        assert doc["mode"] == "exact-marginal"
        assert doc["seed"] == 21 and doc["n_trials"] == 4000
        assert len(doc["p_minus_per_qubit"]) == 3
        assert abs(doc["q_estimate"] - 1.0) < 5 * doc["std_error"] + 0.05

    @pytest.mark.parametrize("mode", MODES)
    def test_report_matches_sampler(self, mode):
        run = ProtocolRun(w_state(3), 2500, 4, mode)
        doc = run_report(run)
        stats = q_protocol_sampled(run)
        assert doc["q_estimate"] == stats.estimate
        assert doc["std_error"] == stats.std_error
