"""Swap-test measurement protocol: exact statistics, back-action, sampling.

The architecture holds three stacked registers: two copies t and s of the
state under test and a control register c of ancillas prepared in |+>.  A
controlled-SWAP on each column (c_j, t_j, s_j) followed by a sigma_x
measurement of c_j realizes a swap test of the reduced state rho_j, with

    p(+) = (1 + Tr[rho_j^2]) / 2,   p(-) = (1 - Tr[rho_j^2]) / 2.

The counted symbol "1" is the -1 eigenstate of sigma_x, so the mean number
of 1s per shot equals n*Q/4 exactly.  (Some write-ups attach the count to
p(+); with the p(+-) convention above only the minus outcome reproduces the
n*Q/4 identity, so that labeling is used throughout.)

Every exact quantity comes from subset purities, all computed by the state
layer's stacked kernel ``subset_purities``: the per-qubit p(-) from the n
single-qubit purities, and the joint distribution of the n ancilla bits
from the table of all 2^n of them by the swap-trick identity

    p(b) = 2^-n sum_S (-1)^{|b & S|} Tr[rho_S^2],

an n-axis Walsh-Hadamard transform (Ekert et al., PRL 88, 217901 (2002)).
Full-joint mode is capped at n = 13, where the table takes about 0.4 s.
``subset_purities`` remembers the purities it computes on each state, so the
exact Q, the sampled runs and ``subset_purity_exact`` on one state object
compute each subset once between them.
``subset_purity_circuit`` simulates the (|S| + 2n)-qubit circuit instead
and serves only as an oracle; the tests build the 3n-qubit circuit oracle
of the joint distribution on the same ``_controlled_swaps``.

Sampling is seed-deterministic: ``states._check_seed`` parses a run's seed
and ``states._generator`` builds its one PCG64 stream, so a seed fixes the
tally bit for bit.  The estimator needs only two integer tallies, the number
of "1"s on each ancilla and the histogram of per-trial counts, and
``tally_outcomes`` draws them from their exact distribution without drawing
the trials: n(n+1)/2 binomial draws in exact-marginal mode, one multinomial
over the 2^n ancilla patterns in full-joint mode.  Time and memory are flat
in the trial count.  ``sample_outcomes`` draws the full (trials x n) stream
in one draw, as the per-trial oracle; no estimator calls it.  Every trial
consumes fresh copies of the state; register reuse (and the
depolarize-and-reset it would need) is not modeled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .measures import _check_measurable
from .pulses import canonical_cswap
from .states import (
    DensityMatrix,
    PureState,
    _bits,
    _check_cap,
    _check_seed,
    _generator,
    _integer,
    _norm2,
    _subset_index,
    apply_unitary,
    check_subset,
    subset_purities,
)

MODE_EXACT_MARGINAL = "exact-marginal"
MODE_FULL_JOINT = "full-joint"
MODES = (MODE_EXACT_MARGINAL, MODE_FULL_JOINT)

# dense-vector feasibility bound for simulating the control register and
# both copies at once (_controlled_swaps, under the subset_purity_circuit
# oracle and the tests' joint-distribution circuit)
FULL_JOINT_MAX_QUBITS = 14

# full-joint mode reads a table of all 2^n subset purities, which takes about
# 0.4 s at n = 13 and 1.9 s at n = 14 (BENCH_purity.json)
JOINT_MODE_MAX_QUBITS = 13

# conditioning on outcomes rarer than this is treated as impossible
MIN_OUTCOME_PROBABILITY = 1e-12

# numpy's int64 binomial draws are too wide beyond this count: over 200,000
# Binomial(N, 1/2) draws their sd is sqrt(N/4) times 1.000 at N = 2**60,
# about 1.01 at 2**61 and 1.04 at 2**62 (numpy 2.4)
MAX_TRIALS = 2**60

_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


@dataclass(frozen=True)
class ProtocolRun:
    """Configuration of a sampled measurement run."""

    state: PureState
    n_trials: int
    seed: int
    mode: str = MODE_EXACT_MARGINAL

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "n_trials", _integer(self.n_trials, "n_trials"))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.n_trials > MAX_TRIALS:
            raise ValueError(f"n_trials must be <= 2**60 (int64 binomial draws), "
                             f"got {self.n_trials}")
        if self.mode == MODE_FULL_JOINT:
            _check_cap("full-joint mode", self.state.n_qubits, "JOINT_MODE_MAX_QUBITS",
                       JOINT_MODE_MAX_QUBITS, "it reads all 2**n subset purities")


@dataclass(frozen=True, eq=False)
class OutcomeTally:
    """Integer counts of a sampled run: all that the estimator reads (compared by identity)."""

    minus_counts: np.ndarray  # per qubit: trials whose ancilla read "1"
    count_histogram: np.ndarray  # index k: trials with exactly k "1"s


@dataclass(frozen=True)
class EstimatorStats:
    """Sample mean, standard error, and trial count of an estimate."""

    estimate: float
    std_error: float
    n_trials: int


# ---------------------------------------------------------------------------
# exact statistics


def swap_test_post_state(rho: DensityMatrix, outcome: str) -> DensityMatrix:
    """State of the two copies after a selective swap test.

    The test measures the SWAP operator on rho (x) rho; conditioning on the
    +-1 outcome projects onto the (anti)symmetric subspace:

        rho' = P (rho (x) rho) P / p,   P = (1 +- SWAP)/2.

    Conditioning on an outcome of probability <= 1e-12 (e.g. the minus
    outcome on a pure input) is rejected.
    """
    sign = _outcome_sign(outcome)
    d = rho.dim
    doubled = np.kron(rho.entries, rho.entries)
    projector = (np.eye(d * d) + sign * _swap_operator(d)) / 2.0
    conditioned = projector @ doubled @ projector
    p = float(np.trace(conditioned).real)
    if p <= MIN_OUTCOME_PROBABILITY:
        raise ValueError(f"outcome {outcome!r} has probability {p:.3e}; cannot condition")
    return DensityMatrix(d * d, conditioned / p)


def copy_marginal(doubled: DensityMatrix, copy: str = "a") -> DensityMatrix:
    """Reduced state of one copy of a two-copy (dim d*d) state."""
    d = int(round(np.sqrt(doubled.dim)))
    if d * d != doubled.dim:
        raise ValueError(f"dim {doubled.dim} is not a perfect square")
    r = doubled.entries.reshape(d, d, d, d)
    if copy == "a":
        return DensityMatrix(d, np.einsum("ijkj->ik", r))
    if copy == "b":
        return DensityMatrix(d, np.einsum("ijil->jl", r))
    raise ValueError(f"copy must be 'a' or 'b', got {copy!r}")


def minus_probabilities(state: PureState) -> np.ndarray:
    """Exact per-qubit p(-) = (1 - Tr[rho_k^2])/2."""
    return (1.0 - subset_purities(state, [[k] for k in range(state.n_qubits)])) / 2.0


def q_protocol_exact(state: PureState) -> float:
    """Q from the counting identity: (4/n) * sum_k p(-)_k."""
    return float(4.0 / _check_measurable(state) * np.sum(minus_probabilities(state)))


# ---------------------------------------------------------------------------
# sampling


def sample_outcomes(run: ProtocolRun) -> np.ndarray:
    """Boolean array (n_trials, n_qubits): True where ancilla j read "1".

    exact-marginal mode draws each ancilla independently from its exact
    p(-); full-joint mode samples the joint ancilla distribution that
    ``tally_outcomes`` reads, preserving inter-qubit outcome correlations.
    The array grows with n_trials.  It is the per-trial oracle of
    ``tally_outcomes``, whose tally has the same distribution as this
    stream's counts but is drawn without it; no estimator calls it.
    """
    n = run.state.n_qubits
    rng = _generator(run.seed)
    if run.mode == MODE_FULL_JOINT:
        joint = _joint_distribution(run.state)
        return _bits(rng.choice(joint.size, run.n_trials, p=joint), n)
    return rng.random((run.n_trials, n)) < minus_probabilities(run.state)


def tally_outcomes(run: ProtocolRun) -> OutcomeTally:
    """Per-qubit counts of "1" and the histogram of per-trial counts.

    Draws the tally of ``n_trials`` i.i.d. trials from its exact
    distribution without drawing the trials, so its cost does not depend
    on the trial count.  exact-marginal mode splits bins binomially: while
    qubit j is read, ``bins[c]`` holds the trials with c "1"s so far, and
    Binomial(bins[c], p_j) of them move to bin c + 1 (n(n+1)/2 draws in
    all).  full-joint mode draws the pattern counts as one multinomial over
    the 2^n ancilla patterns and reduces them to the two tallies.
    """
    n = run.state.n_qubits
    rng = _generator(run.seed)
    if run.mode == MODE_FULL_JOINT:
        patterns = rng.multinomial(run.n_trials, _joint_distribution(run.state))
        bits = _bits(np.arange(2**n), n)
        histogram = np.zeros(n + 1, dtype=np.int64)
        np.add.at(histogram, bits.sum(axis=1), patterns)
        return OutcomeTally(patterns @ bits, histogram)
    # a qubit in a pure reduced state can give p(-) = -1e-17
    p_minus = np.clip(minus_probabilities(run.state), 0.0, 1.0)
    minus = np.zeros(n, dtype=np.int64)
    bins = np.zeros(n + 1, dtype=np.int64)
    bins[0] = run.n_trials
    for j, p in enumerate(p_minus):
        moved = rng.binomial(bins[: j + 1], p)
        bins[: j + 1] -= moved
        bins[1 : j + 2] += moved
        minus[j] = moved.sum()
    return OutcomeTally(minus, bins)


def _joint_distribution(state: PureState) -> np.ndarray:
    """Joint distribution of the n ancilla bits from the subset-purity table.

    The swap tests measure prod_j (1 +- SWAP_j)/2 on two copies, so

        p(b) = 2^-n sum_S (-1)^{|b & S|} Tr[rho_S^2],   Tr[rho_empty^2] = 1,

    an n-axis Walsh-Hadamard transform of the table of all 2^n subset
    purities.  A pure state gives S and its complement the same purity, so
    each entry is computed on the smaller side of its cut, and a half-size
    cut once for both sides.  The transform rounds true zeros to about
    -1e-17, hence the clip and renormalisation.
    """
    n = state.n_qubits
    table = np.ones(2**n)  # the empty set and the whole register are pure
    for m in range(1, n // 2 + 1):
        subsets = [s for s in itertools.combinations(range(n), m) if 2 * m < n or s[0] == 0]
        # a subset's index sets its qubits' bits, as b sets its ancillas'
        index = _subset_index(subsets, n)
        table[index] = table[2**n - 1 - index] = subset_purities(state, subsets)
    for q in range(n):
        halves = table.reshape(2**q, 2, -1)
        table = np.stack((halves[:, 0] + halves[:, 1], halves[:, 0] - halves[:, 1]), axis=1)
    probs = np.clip(table.reshape(-1) / 2**n, 0.0, None)
    return probs / probs.sum()


def q_protocol_sampled(run: ProtocolRun) -> EstimatorStats:
    """Monte Carlo estimate of Q from per-trial counts of "1" ancillas."""
    _check_measurable(run.state)
    return _estimate(tally_outcomes(run))


def _estimate(tally: OutcomeTally) -> EstimatorStats:
    """Mean and ddof=1 standard error of the per-trial Q = (4/n) * count of "1"s.

    The count sums are exact integers, so the only roundings are the final
    division and square root.
    """
    n = tally.minus_counts.size
    hist = [int(h) for h in tally.count_histogram]
    n_trials = sum(hist)
    s1 = sum(k * h for k, h in enumerate(hist))
    s2 = sum(k * k * h for k, h in enumerate(hist))
    std_error = 0.0
    if n_trials > 1:
        # SE^2 = (4/n)^2 * sum_t (c_t - mean c)^2 / ((T - 1) * T)
        std_error = math.sqrt(
            16 * (n_trials * s2 - s1 * s1) / (n * n * n_trials * n_trials * (n_trials - 1))
        )
    return EstimatorStats(4 * s1 / (n * n_trials), std_error, n_trials)


def convergence_sweep(
    state: PureState, trial_counts: list[int], seed: int
) -> list[tuple[int, float]]:
    """Absolute estimator error |estimate - Q| for each trial count.

    Each count runs with an independent substream derived from
    ``SeedSequence((seed, index))`` so the sweep is reproducible while
    counts stay uncorrelated.
    """
    seed = _check_seed(seed)
    trial_counts = [_integer(count, "n_trials") for count in trial_counts]
    if not trial_counts:
        raise ValueError("convergence sweep needs at least one trial count")
    if any(b <= a for a, b in zip(trial_counts, trial_counts[1:])):
        raise ValueError(f"trial counts must be ascending, got {trial_counts}")
    q_exact = q_protocol_exact(state)
    rows = []
    for i, count in enumerate(trial_counts):
        sub = int(np.random.SeedSequence((seed, i)).generate_state(1, np.uint64)[0])
        stats = q_protocol_sampled(ProtocolRun(state, count, sub))
        rows.append((stats.n_trials, abs(stats.estimate - q_exact)))
    return rows


# ---------------------------------------------------------------------------
# subset purity via an entangled control register


def subset_purity_exact(state: PureState, subset) -> float:
    """Tr[rho_subset^2] by partial trace, through the stacked purity kernel.

    ``subset_purity_circuit`` computes the same value by simulating the
    protocol's circuit and serves as its independent oracle.
    """
    return float(subset_purities(state, [subset])[0])


def subset_purity_circuit(state: PureState, subset) -> float:
    """Tr[rho_subset^2] from the full entangled-control circuit.

    A register of m = |subset| control qubits is steered into a GHZ state by
    a CNOT ladder from (|0> + |1>)/sqrt(2) (x) |0...0>, one c-SWAP acts per
    subset column, the ladder is undone, and control qubit 0 is read in the
    sigma_x basis; then Tr[rho_subset^2] = 2 p(+) - 1.
    """
    subset = check_subset(subset, state.n_qubits)
    m = len(subset)

    def ghz_control() -> PureState:
        amps = np.zeros(2**m, dtype=complex)
        amps[0] = amps[2 ** (m - 1)] = 1 / np.sqrt(2)
        control = PureState(m, amps)
        for k in range(1, m):
            control = apply_unitary(control, _CNOT, [k - 1, k])
        return control

    joint = _controlled_swaps(ghz_control, state, subset)
    for k in range(m - 1, 0, -1):
        joint = apply_unitary(joint, _CNOT, [k - 1, k])
    t = joint.tensor()
    plus_component = (t[0] + t[1]) / np.sqrt(2)
    p_plus = float(np.sum(np.abs(plus_component) ** 2))
    return 2.0 * p_plus - 1.0


def _controlled_swaps(control, state: PureState, columns) -> PureState:
    """control() (x) psi (x) psi after a c-SWAP of copy qubits ``columns[j]`` under control j.

    ``control`` builds the len(columns)-qubit control register once the whole
    register is known to fit.  The two copies are divided by their norm: psi of
    squared norm 1 +- 0.9e-10 passes ``PureState``, but psi (x) psi would not.
    """
    m, n = len(columns), state.n_qubits
    _check_cap("circuit simulation", m + 2 * n, "FULL_JOINT_MAX_QUBITS", FULL_JOINT_MAX_QUBITS,
               "its control register and two copies of the state form one dense vector")
    doubled = np.kron(state.amplitudes, state.amplitudes)
    joint = PureState(m + 2 * n, np.kron(control().amplitudes, doubled / np.sqrt(_norm2(doubled))))
    for j, qubit in enumerate(columns):
        joint = apply_unitary(joint, canonical_cswap(0, 1, 2, 3), [j, m + qubit, m + n + qubit])
    return joint


def _circuit_fits(m: int, n: int) -> bool:
    """Whether m control qubits and two n-qubit copies fit the simulated register."""
    return m + 2 * n <= FULL_JOINT_MAX_QUBITS


# ---------------------------------------------------------------------------
# result export


def run_report(run: ProtocolRun, state_ref: str | None = None) -> dict:
    """JSON-ready summary of a sampled run."""
    _check_measurable(run.state)
    tally = tally_outcomes(run)
    stats = _estimate(tally)
    return {
        "state": state_ref if state_ref is not None else f"<{run.state.n_qubits}-qubit state>",
        "mode": run.mode,
        "seed": run.seed,
        "n_trials": run.n_trials,
        "p_minus_per_qubit": [int(c) / run.n_trials for c in tally.minus_counts],
        "q_estimate": stats.estimate,
        "std_error": stats.std_error,
    }


def sweep_csv(rows: list[tuple[int, float]]) -> str:
    """Convergence sweep as CSV text (columns: n_trials, abs_error)."""
    lines = ["n_trials,abs_error"]
    lines += [f"{count},{err:.17g}" for count, err in rows]
    return "\n".join(lines) + "\n"


def _swap_operator(d: int) -> np.ndarray:
    idx = np.arange(d * d)
    s = np.zeros((d * d, d * d))
    s[(idx % d) * d + idx // d, idx] = 1.0
    return s


def _outcome_sign(outcome: str) -> int:
    if outcome == "plus":
        return 1
    if outcome == "minus":
        return -1
    raise ValueError(f"outcome must be 'plus' or 'minus', got {outcome!r}")
