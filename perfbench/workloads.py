"""The four workloads: seeded inputs, the op cycle, and the check on each op.

Reference values never come from the route under test: the named families
have analytic Q (GHZ 1, W 4(n-1)/n^2, product 0, linear cluster 1), and
random states are checked against the purities computed here with plain
numpy.  Sampled estimates must lie within ``SAMPLE_Z`` standard errors of
the exact value, with the standard error also computed here.

A CLI op is an argument list for ``qent``; a library op is a Python call.
Each op's check returns ``None`` or a message saying what was wrong.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

Q_ATOL = 1e-10
SAMPLE_Z = 5.0
CSWAP_TIME = 27 * math.pi / 4
TIME_ATOL = 1e-9


def derive_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# independent references


def qubit_purities(amps: np.ndarray, n: int) -> np.ndarray:
    """Tr[rho_k^2] for every qubit k (qubit 0 is the most significant bit)."""
    t = np.asarray(amps, dtype=complex).reshape([2] * n)
    out = np.empty(n)
    for k in range(n):
        m = np.moveaxis(t, k, 0).reshape(2, -1)
        out[k] = float(np.sum(np.abs(m @ m.conj().T) ** 2))
    return out


def subset_purity(amps: np.ndarray, n: int, subset: tuple[int, ...]) -> float:
    """Tr[rho_S^2], computed on the complement side of the Schmidt cut."""
    rest = [q for q in range(n) if q not in subset]
    m = np.transpose(np.asarray(amps, dtype=complex).reshape([2] * n), list(subset) + rest)
    m = m.reshape(2 ** len(subset), -1)
    return float(np.sum(np.abs(m.conj().T @ m) ** 2))


def q_from_purities(purities: np.ndarray) -> float:
    return float(2.0 * (1.0 - np.mean(purities)))


ANALYTIC_Q = {
    "ghz": lambda n: 1.0,
    "w": lambda n: 4.0 * (n - 1) / n**2,
    "cluster": lambda n: 1.0,
    "product": lambda n: 0.0,
}


def check_close(label: str, got, want: float, atol: float = Q_ATOL) -> str | None:
    if not isinstance(got, (int, float)) or not math.isfinite(got) or abs(got - want) > atol:
        return f"{label} = {got!r}, expected {want!r} within {atol:g}"
    return None


def check_sampled(label: str, estimate, p_minus, p_exact: np.ndarray, trials: int,
                  joint: bool) -> str | None:
    """Estimate of Q and per-qubit p(-) within SAMPLE_Z standard errors.

    Exact-marginal ancillas are independent, so the count variance is the
    sum of the Bernoulli variances.  Full-joint ancillas may correlate;
    (sum_k sd_k)^2 bounds the count variance for any correlation.
    """
    n = p_exact.size
    sd = np.sqrt(p_exact * (1.0 - p_exact))
    q_sd = 4.0 / n * (float(np.sum(sd)) if joint else float(np.sqrt(np.sum(sd**2))))
    q_exact = 4.0 / n * float(np.sum(p_exact))
    err = check_close(f"{label} Q estimate", estimate, q_exact,
                      SAMPLE_Z * q_sd / math.sqrt(trials) + 1e-12)
    if err is not None or p_minus is None:
        return err
    if len(p_minus) != n:
        return f"{label}: {len(p_minus)} per-qubit p(-) values for {n} qubits"
    for k, (got, want, s) in enumerate(zip(p_minus, p_exact, sd)):
        err = check_close(f"{label} p(-) of qubit {k}", got, float(want),
                          SAMPLE_Z * s / math.sqrt(trials) + 1e-12)
        if err is not None:
            return err
    return None


def _json(stdout: bytes) -> dict:
    doc = json.loads(stdout)
    if not isinstance(doc, dict):
        raise ValueError("report is not a JSON object")
    return doc


# ---------------------------------------------------------------------------
# op descriptions


@dataclass
class CliOp:
    """One ``qent`` invocation, run with the workload directory as cwd.

    ``same_stdout`` asks for byte-identical stdout on every repeat of the
    op; ``same_file`` names a file the op writes that must repeat byte for
    byte.
    """

    key: str
    args: list[str]
    check: Callable[[bytes], str | None]
    same_stdout: bool = False
    same_file: str | None = None


@dataclass
class LibOp:
    key: str
    call: Callable[[], str | None]


@dataclass
class Workload:
    seed: int
    work: Path
    digests: dict[str, str] = field(default_factory=dict)
    cli = True  # ops are CliOps run as subprocesses, else in-process LibOps

    def build(self):
        """Write the seeded inputs (timed as part of set-up)."""

    def references(self):
        """Compute reference values after build(), before the warm-up op (not timed)."""

    def after_setup(self):
        """Compute references that need the warm-up op's output (not timed)."""

    def cycle(self) -> list:
        raise NotImplementedError

    def repeat_check(self, key: str, data: bytes) -> str | None:
        """Byte-identical output for every repeat of the op ``key``."""
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(key, digest)
        if digest != first:
            return f"{key}: output differs from its first run under the same seed"
        return None


# ---------------------------------------------------------------------------
# q-direct: the wedge-product route at n=11 over five state families


class QDirect(Workload):
    N = 11
    FAMILIES = ("random", "cluster", "w", "ghz", "product")

    def build(self):
        from qent import states

        n = self.N
        self.states = {
            "random": states.random_state(n, derive_seed(self.seed, 1)),
            "cluster": states.cluster_state(n),
            "w": states.w_state(n),
            "ghz": states.ghz_state(n),
            "product": states.random_product_state(n, derive_seed(self.seed, 2)),
        }
        for fam, st in self.states.items():
            states.save_state(st, self.work / f"{fam}{n}.json")

    def references(self):
        self.ref = {fam: ANALYTIC_Q[fam](self.N) for fam in ANALYTIC_Q}
        self.ref["random"] = q_from_purities(
            qubit_purities(self.states["random"].amplitudes, self.N))

    def cycle(self):
        return [CliOp(f"q-all-{fam}", ["q", f"{fam}{self.N}.json", "--route", "all"],
                      self._checker(fam))
                for fam in self.FAMILIES]

    def _checker(self, fam):
        def check(stdout: bytes):
            doc = _json(stdout)
            if doc.get("n_qubits") != self.N:
                return f"{fam}: n_qubits {doc.get('n_qubits')!r} != {self.N}"
            values = doc["q"]
            if sorted(values) != ["direct", "protocol", "purity"]:
                return f"{fam}: routes {sorted(values)}"
            for route, val in values.items():
                err = check_close(f"{fam} Q({route})", val, self.ref[fam])
                if err:
                    return err
            dev = doc["max_pairwise_deviation"]
            if not 0.0 <= dev <= Q_ATOL:
                return f"{fam}: max_pairwise_deviation {dev!r} > {Q_ATOL:g}"
            return None
        return check


# ---------------------------------------------------------------------------
# state-io: write and read large state files; the direct route never runs


class StateIO(Workload):
    # writes are one op in three; at n=16 a 25 s run holds about 20 of them,
    # so the tail percentile, which needs 10 samples beyond it, lands well
    # inside the writes rather than at their boundary with the reads
    N = 16
    # random and random-product files have the same size; a cluster file is a
    # third smaller, its reads form a second latency group, and the median
    # would sit in the gap between the two groups
    KINDS = ("random", "product")

    def build(self):
        # nothing to write: the warm-up op, the first of the cycle, writes
        # the random file that after_setup() reads
        self.gen_seeds = {kind: derive_seed(self.seed, 3, k) for k, kind in enumerate(self.KINDS)}

    def after_setup(self):
        amps = _load_amplitudes(self.work / self._file("random"))
        self.ref = {"random": q_from_purities(qubit_purities(amps, self.N)),
                    "product": ANALYTIC_Q["product"](self.N)}

    def _file(self, kind):
        return f"{kind}{self.N}.json"

    def cycle(self):
        ops = []
        for kind in self.KINDS:
            path = self._file(kind)
            gen = ["gen", kind, "--n", str(self.N), "--seed", str(self.gen_seeds[kind]),
                   "--out", path]
            ops.append(CliOp(f"gen-{kind}", gen, _empty_stdout, same_file=path))
            for route in ("purity", "protocol"):
                ops.append(CliOp(f"q-{route}-{kind}", ["q", path, "--route", route],
                                 self._reader(kind, route)))
        return ops

    def _reader(self, kind, route):
        def check(stdout: bytes):
            doc = _json(stdout)
            if doc.get("n_qubits") != self.N:
                return f"{kind}: n_qubits {doc.get('n_qubits')!r} != {self.N}"
            return check_close(f"{kind} Q({route})", doc["q"].get(route), self.ref[kind])
        return check


def _empty_stdout(stdout: bytes):
    return None if not stdout.strip() else f"unexpected stdout {stdout[:80]!r}"


def _load_amplitudes(path: Path) -> np.ndarray:
    doc = json.loads(path.read_text())
    pairs = np.asarray(doc["amplitudes"], dtype=float)
    return pairs[:, 0] + 1j * pairs[:, 1]


# ---------------------------------------------------------------------------
# protocol: Monte Carlo sampling and pulse verification through the CLI


class Protocol(Workload):
    TRIALS = 1_000_000
    SWEEP = (1000, 10000, 100000, 1000000)

    def build(self):
        from qent import states

        self.states = {n: states.random_state(n, derive_seed(self.seed, 4, n)) for n in (10, 4)}
        for n, st in self.states.items():
            states.save_state(st, self.work / f"r{n}.json")

    def references(self):
        self.p_minus = {n: (1.0 - qubit_purities(st.amplitudes, n)) / 2.0
                        for n, st in self.states.items()}

    def cycle(self):
        s = [str(derive_seed(self.seed, 5, k)) for k in range(3)]
        t = str(self.TRIALS)
        sweep = ",".join(map(str, self.SWEEP))
        return [
            CliOp("protocol-exact", ["protocol", "r10.json", "--trials", t, "--seed", s[0]],
                  self._report(10, "exact-marginal", int(s[0])), same_stdout=True),
            CliOp("protocol-joint",
                  ["protocol", "r4.json", "--trials", t, "--mode", "joint", "--seed", s[1]],
                  self._report(4, "full-joint", int(s[1])), same_stdout=True),
            CliOp("protocol-sweep", ["protocol", "r10.json", "--sweep", sweep, "--seed", s[2]],
                  self._sweep, same_stdout=True),
            CliOp("verify-cswap", ["verify", "cswap"], _check_verify_cswap, same_stdout=True),
        ]

    def _report(self, n, mode, seed):
        def check(stdout: bytes):
            doc = _json(stdout)
            for key, want in (("mode", mode), ("seed", seed), ("n_trials", self.TRIALS)):
                if doc.get(key) != want:
                    return f"protocol r{n}: {key} {doc.get(key)!r} != {want!r}"
            return check_sampled(f"protocol r{n} {mode}", doc["q_estimate"],
                                 doc["p_minus_per_qubit"], self.p_minus[n], self.TRIALS,
                                 joint=mode == "full-joint")
        return check

    def _sweep(self, stdout: bytes):
        lines = stdout.decode().split()
        if lines[0] != "n_trials,abs_error" or len(lines) != len(self.SWEEP) + 1:
            return f"sweep CSV has unexpected shape: {lines[:2]!r}"
        p = self.p_minus[10]
        sd = 4.0 / p.size * math.sqrt(float(np.sum(p * (1.0 - p))))
        for line, count in zip(lines[1:], self.SWEEP):
            got_count, err = line.split(",")
            if int(got_count) != count:
                return f"sweep row count {got_count} != {count}"
            if not 0.0 <= float(err) <= SAMPLE_Z * sd / math.sqrt(count):
                return f"sweep |error| {err} at {count} trials beyond {SAMPLE_Z:g} SE"
        return None


def _check_verify_cswap(stdout: bytes):
    doc = _json(stdout)
    if doc.get("target") != "cswap" or doc.get("ok") is not True:
        return f"verify cswap not ok: {doc!r}"
    if not doc["deviation"] < doc["tolerance"]:
        return f"verify cswap deviation {doc['deviation']!r}"
    return check_close("c-SWAP interaction time", doc["interaction_time"], CSWAP_TIME, TIME_ATOL)


# ---------------------------------------------------------------------------
# lib-session: README-style library use in-process, no start-up cost


class LibSession(Workload):
    cli = False
    POOL = 4
    SIZES = (4, 6, 8)
    TRIALS = 100_000
    PHI = 0.3

    def build(self):
        from qent import states

        self.pool = [
            {n: states.random_state(n, derive_seed(self.seed, 6, j, n)) for n in self.SIZES}
            for j in range(self.POOL)
        ]
        self.sample_seeds = [derive_seed(self.seed, 7, j) for j in range(self.POOL)]
        self.first_estimates: dict = {}

    def references(self):
        self.ref = []
        for entry in self.pool:
            amps4 = entry[4].amplitudes
            self.ref.append({
                "q": {n: q_from_purities(qubit_purities(st.amplitudes, n))
                      for n, st in entry.items()},
                "p_minus4": (1.0 - qubit_purities(amps4, 4)) / 2.0,
                "subsets": {s: subset_purity(amps4, 4, s) for s in _subsets(4)},
            })

    def cycle(self):
        # one op walks through every pool entry: at about 0.2 s an op is long
        # enough that the tail percentile is not set by single scheduler stalls
        return [LibOp("sessions", self.sessions)]

    def sessions(self) -> str | None:
        for j in range(self.POOL):
            err = self.session(j)
            if err:
                return err
        return None

    def session(self, j: int) -> str | None:
        import qent

        entry, ref = self.pool[j], self.ref[j]
        for n, st in entry.items():
            for route, fn in (("direct", qent.q_direct), ("purity", qent.q_purity),
                              ("protocol", qent.q_protocol_exact)):
                err = check_close(f"n={n} Q({route})", fn(st), ref["q"][n])
                if err:
                    return err
        for mode in ("exact-marginal", "full-joint"):
            stats = qent.q_protocol_sampled(
                qent.ProtocolRun(entry[4], self.TRIALS, self.sample_seeds[j], mode))
            err = check_sampled(f"n=4 {mode}", stats.estimate, None, ref["p_minus4"],
                                self.TRIALS, joint=mode == "full-joint")
            if err:
                return err
            first = self.first_estimates.setdefault((j, mode), stats.estimate)
            if stats.estimate != first:
                return f"n=4 {mode}: estimate {stats.estimate!r} != {first!r} under one seed"
        for subset, want in ref["subsets"].items():
            err = check_close(f"purity of subset {subset}",
                              qent.subset_purity_exact(entry[4], subset), want)
            if err:
                return err
        model = qent.CouplingModel(g=1.0)
        gates = (
            ("SWAP", qent.swap_sequence(0, 1), qent.canonical_swap(0, 1, 2), 3 * math.pi / 4),
            ("three-body", qent.three_body_sequence(self.PHI, 0, 1, 2),
             qent.zzz_unitary(self.PHI, 0, 1, 2, 3), 2 * math.pi + self.PHI),
            ("c-SWAP", qent.cswap_sequence(0, 1, 2), qent.canonical_cswap(0, 1, 2, 3),
             CSWAP_TIME),
        )
        for label, seq, canonical, want_time in gates:
            dev = qent.phase_aligned_deviation(canonical, qent.sequence_unitary(seq))
            if not dev < TIME_ATOL:
                return f"{label} sequence deviates from its gate by {dev!r}"
            err = check_close(f"{label} interaction time",
                              qent.interaction_time(seq, model), want_time, TIME_ATOL)
            if err:
                return err
        return None


def _subsets(n: int):
    return [s for m in range(1, n + 1) for s in itertools.combinations(range(n), m)]


WORKLOADS = {
    "q-direct": QDirect,
    "state-io": StateIO,
    "protocol": Protocol,
    "lib-session": LibSession,
}
