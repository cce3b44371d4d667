"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criterion 4 is expected to fail in part: a
contiguous half cut of a line cluster state provably has Schmidt number 2
for every n [only one chain edge crosses such a cut], so the asserted value
2**(n//2) is unattainable for n in {4, 6}; the alternating (even|odd) cut
does attain it, which test_measures.py::TestSchmidt covers.
"""

import time

import numpy as np

from qent import (
    CouplingModel,
    ProtocolRun,
    apply_unitary,
    canonical_cswap,
    canonical_swap,
    cluster_state,
    convergence_sweep,
    copy_marginal,
    cswap_sequence,
    ghz_state,
    interaction_time,
    minus_probabilities,
    phase_aligned_deviation,
    purity,
    q_direct,
    q_protocol_exact,
    q_protocol_sampled,
    q_purity,
    random_product_state,
    random_state,
    sample_outcomes,
    schmidt_number,
    sequence_unitary,
    subset_purity_circuit,
    subset_purity_exact,
    swap_sequence,
    swap_test_post_state,
    three_body_sequence,
    w_state,
    zzz_unitary,
)
from qent.protocol import MODE_FULL_JOINT, _swap_operator

from conftest import bell_bell, haar_unitary, random_density


def _finish(num, failures, started, budget=None):
    elapsed = time.perf_counter() - started
    ok = not failures and (budget is None or elapsed <= budget)
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  ({elapsed:.2f}s)"
    if failures:
        line += "  " + "; ".join(failures[:6])
    if budget is not None and elapsed > budget:
        line += f"  [over {budget:.0f}s budget]"
    print(line)
    assert ok, line


def test_criterion_1_known_value_table():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(1)
    for n in range(2, 9):
        expected = {"ghz": 1.0, "cluster": 1.0, "w": 4 * (n - 1) / n**2}
        states = {"ghz": ghz_state(n), "cluster": cluster_state(n), "w": w_state(n)}
        for name, state in states.items():
            for route, fn in (("direct", q_direct), ("purity", q_purity)):
                value = fn(state)
                if abs(value - expected[name]) >= 1e-9:
                    failures.append(f"Q_{route}({name}_{n}) = {value!r}")
        for trial in range(3):
            prod = random_product_state(n, rng)
            if abs(q_direct(prod)) >= 1e-9 or abs(q_purity(prod)) >= 1e-9:
                failures.append(f"Q(product, n={n}, trial {trial}) != 0")
    _finish(1, failures, started, budget=1.0)


def test_criterion_2_route_equivalence():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2)
    for n in range(2, 7):
        for trial in range(100):
            state = random_state(n, rng)
            direct, avg_purity, protocol = q_direct(state), q_purity(state), q_protocol_exact(state)
            if abs(direct - avg_purity) >= 1e-9:
                failures.append(f"n={n} trial={trial}: |direct-purity| = {abs(direct - avg_purity):.2e}")
            if abs(avg_purity - protocol) >= 1e-10:
                failures.append(f"n={n} trial={trial}: |purity-protocol| = {abs(avg_purity - protocol):.2e}")
    _finish(2, failures, started, budget=5.0)


def test_criterion_3_local_unitary_invariance():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(3)
    for trial in range(50):
        state = random_state(4, rng)
        before = q_direct(state)
        rotated = state
        for k in range(4):
            rotated = apply_unitary(rotated, haar_unitary(2, rng), [k])
        drift = abs(q_direct(rotated) - before)
        if drift >= 1e-9:
            failures.append(f"trial {trial}: drift {drift:.2e}")
    _finish(3, failures, started)


def test_criterion_4_schmidt_comparisons():
    started = time.perf_counter()
    failures = []
    for n in range(2, 7):
        cuts = [[0], [n - 1], list(range(max(1, n // 2)))]
        for cut in cuts:
            got = schmidt_number(ghz_state(n), cut)
            if got != 2:
                failures.append(f"ghz_{n} cut {cut}: {got} != 2")
    for n in (2, 4, 6):
        got = schmidt_number(cluster_state(n), list(range(n // 2)))
        want = 2 ** (n // 2)
        if got != want:
            failures.append(f"cluster_{n} contiguous half cut: {got} != {want}")
    if schmidt_number(bell_bell(), [0, 1]) != 1:
        failures.append("bell x bell over {0,1}|{2,3} != 1")
    if schmidt_number(ghz_state(4), [0, 1]) != 2:
        failures.append("ghz_4 over {0,1}|{2,3} != 2")
    _finish(4, failures, started)


def test_criterion_5_pulse_verification():
    started = time.perf_counter()
    failures = []
    dev = phase_aligned_deviation(canonical_swap(0, 1, 2), sequence_unitary(swap_sequence(0, 1)))
    if dev >= 1e-9:
        failures.append(f"swap deviation {dev:.2e}")
    for phi in (0.0, np.pi / 8, 0.3, -1.1):
        dev = phase_aligned_deviation(
            zzz_unitary(phi, 0, 1, 2, 3), sequence_unitary(three_body_sequence(phi, 0, 1, 2))
        )
        if dev >= 1e-9:
            failures.append(f"threebody(phi={phi}) deviation {dev:.2e}")
    dev = phase_aligned_deviation(
        canonical_cswap(0, 1, 2, 3), sequence_unitary(cswap_sequence(0, 1, 2))
    )
    if dev >= 1e-9:
        failures.append(f"cswap deviation {dev:.2e}")
    _finish(5, failures, started, budget=1.0)


def test_criterion_6_interaction_time_budgets():
    started = time.perf_counter()
    failures = []
    for g in (1.0, 2.5):
        seq = cswap_sequence(0, 1, 2)
        fixed = interaction_time(seq, CouplingModel(g))
        want = 27 * np.pi / (4 * g)
        if abs(fixed - want) / want >= 1e-12:
            failures.append(f"fixed g={g}: {fixed!r} != {want!r}")
        tunable = interaction_time(seq, CouplingModel(g, sign_tunable=True))
        want = 9 * np.pi / (4 * g)
        if abs(tunable - want) / want >= 1e-12:
            failures.append(f"tunable g={g}: {tunable!r} != {want!r}")
    _finish(6, failures, started)


def test_criterion_7_back_action():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7)
    cases = [(2, i) for i in range(20)] + [(4, i) for i in range(20)]
    for dim, trial in cases:
        rho = random_density(dim, rng)
        swap = _swap_operator(dim)
        for outcome, sign in (("plus", 1), ("minus", -1)):
            out = swap_test_post_state(rho, outcome)
            if np.max(np.abs(swap @ out.entries - sign * out.entries)) >= 1e-9:
                failures.append(f"dim={dim} trial={trial} {outcome}: not a SWAP eigenstate")
            if abs(np.trace(out.entries) - 1.0) >= 1e-9:
                failures.append(f"dim={dim} trial={trial} {outcome}: trace off")
            p = (1 + sign * purity(rho)) / 2
            expected = (rho.entries + sign * rho.entries @ rho.entries) / (2 * p)
            for copy in ("a", "b"):
                if np.max(np.abs(copy_marginal(out, copy).entries - expected)) >= 1e-9:
                    failures.append(f"dim={dim} trial={trial} {outcome}: reduced formula")
            projector = (np.eye(dim * dim) + sign * swap) / 2
            repeat_same = np.trace(projector @ out.entries).real
            if abs(repeat_same - 1.0) >= 1e-9:
                failures.append(f"dim={dim} trial={trial} {outcome}: repeat prob {repeat_same!r}")
    _finish(7, failures, started)


def test_criterion_8_sampling_convergence():
    started = time.perf_counter()
    failures = []
    counts = [100, 1000, 10_000, 100_000]
    for name, state in (("ghz3", ghz_state(3)), ("w3", w_state(3))):
        q_exact = q_purity(state)
        hits = 0
        for seed in range(100):
            stats = q_protocol_sampled(ProtocolRun(state, 100_000, seed))
            if abs(stats.estimate - q_exact) <= 3 * stats.std_error:
                hits += 1
        if hits < 95:
            failures.append(f"{name}: only {hits}/100 seeds within 3 std errors")
        per_count = np.zeros((20, len(counts)))
        for seed in range(20):
            rows = convergence_sweep(state, counts, seed=1000 + seed)
            per_count[seed] = [err for _, err in rows]
        mean_err = per_count.mean(axis=0)
        slope = np.polyfit(np.log(counts), np.log(mean_err), 1)[0]
        if not -0.65 <= slope <= -0.35:
            failures.append(f"{name}: log-log slope {slope:.3f} outside [-0.65, -0.35]")
    _finish(8, failures, started, budget=60.0)


def test_criterion_9_subset_purity_protocol():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(9)
    for trial in range(5):
        state = random_state(4, rng)
        for subset in ([0], [0, 2], [1, 2, 3]):
            direct = subset_purity_exact(state, subset)
            circuit = subset_purity_circuit(state, subset)
            if abs(direct - circuit) >= 1e-9:
                failures.append(f"trial {trial} subset {subset}: |{direct!r} - {circuit!r}|")
    phi = subset_purity_circuit(bell_bell(), [0, 1])
    psi = subset_purity_circuit(ghz_state(4), [0, 1])
    if abs(phi - 1.0) >= 1e-9:
        failures.append(f"bell x bell subset purity {phi!r} != 1")
    if abs(psi - 0.5) >= 1e-9:
        failures.append(f"ghz_4 subset purity {psi!r} != 1/2")
    if abs(q_purity(bell_bell()) - q_purity(ghz_state(4))) >= 1e-9:
        failures.append("the two states should share Q = 1")
    _finish(9, failures, started)


def test_criterion_10_marginal_vs_joint():
    started = time.perf_counter()
    failures = []
    n_trials = 10_000
    states = {"ghz3": ghz_state(3), "random3": random_state(3, np.random.default_rng(10))}
    for name, state in states.items():
        outcomes = sample_outcomes(ProtocolRun(state, n_trials, 17, MODE_FULL_JOINT))
        freq = outcomes.mean(axis=0)
        p = minus_probabilities(state)
        bound = 4 * np.sqrt(p * (1 - p) / n_trials)
        for k in range(3):
            if abs(freq[k] - p[k]) > bound[k]:
                failures.append(
                    f"{name} qubit {k}: |{freq[k]:.4f} - {p[k]:.4f}| > {bound[k]:.4f}"
                )
    _finish(10, failures, started)
