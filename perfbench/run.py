"""qent benchmark: one seeded workload, timed end to end or traced by layer.

Run from the repository root:

    python3 perfbench/run.py --workload q-direct --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists): ``q-direct``,
``state-io`` and ``protocol`` run each op as a ``python -m qent.cli``
subprocess of the working tree's ``src``; ``lib-session`` calls the library
in-process.  Load is a closed loop with one client and one op in flight.

Set-up (build the seeded inputs, run one warm-up op) is repeated
``SETUP_REPEATS`` times and reported as its median.  Then ops run in cycles
until ``--seconds`` have passed.  Every op's output is checked (see
workloads.py); a non-zero exit, unparseable output, a wrong value or a
non-repeating output under one seed counts as a failed op.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced cycles, runs at least one of each, and prints per-layer
metrics averaged over the complete traced cycles, plus the tracing overhead
as the traced minus the untraced median op latency.  Its spans are written
to ``.perfbench_work/<workload>/spans.json``.

The last line of stdout is the result object; the line before it holds
provenance and details (tail percentile and sample count, error rate).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# exceptions an output check raises on malformed output
CHECK_ERRORS = (ValueError, KeyError, TypeError, IndexError, AttributeError)


class Runner:
    def __init__(self, wl: workloads.Workload, env: dict, trace: bool):
        self.wl = wl
        self.env = env
        self.trace = trace
        self.records: list[tuple[float, int, bool]] = []  # latency, rss KiB, traced
        self.attempted = 0
        self.failures: list[str] = []
        self.layer_spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.startups: list[float] = []
        self.traced_ops = 0
        self._seq = 0

    # -- ops ---------------------------------------------------------------

    def run_op(self, op, traced: bool, cycle_docs: list):
        self._seq += 1
        self.attempted += 1
        if self.wl.cli:
            latency, rss, error = self._run_cli(op, traced, cycle_docs)
        else:
            latency, rss, error = self._run_lib(op)
        if error is not None:
            self.failures.append(error)
        return latency, rss

    def _run_cli(self, op: workloads.CliOp, traced: bool, cycle_docs: list):
        work = self.wl.work
        env = self.env
        if traced:
            cmd = [sys.executable, str(HERE / "tracing.py"), *op.args]
            spans_path = work / f"spans-{self._seq}.json"
            env = dict(env, PERFBENCH_SPANS=str(spans_path), PERFBENCH_OP=str(self._seq))
        else:
            cmd = [sys.executable, "-m", "qent.cli", *op.args]
        with open(work / "stderr.txt", "wb") as err:
            if traced:
                env["PERFBENCH_LAUNCH"] = repr(time.time())
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        error = self._check_cli(op, proc.returncode, stdout)
        if traced:
            cycle_docs.append(json.loads(spans_path.read_text()))
            spans_path.unlink()
        return latency, usage.ru_maxrss, error

    def _check_cli(self, op: workloads.CliOp, code: int, stdout: bytes) -> str | None:
        if code != 0:
            stderr = (self.wl.work / "stderr.txt").read_text(errors="replace")
            return f"{op.key}: exit {code}: {stderr.strip()[-300:]}"
        try:
            error = op.check(stdout)
        except CHECK_ERRORS as exc:
            return f"{op.key}: unparseable output ({exc!r}): {stdout[:120]!r}"
        if error is None and op.same_stdout:
            error = self.wl.repeat_check(op.key, stdout)
        if error is None and op.same_file:
            error = self.wl.repeat_check(op.key, (self.wl.work / op.same_file).read_bytes())
        return error

    def _run_lib(self, op: workloads.LibOp):
        start = time.perf_counter()
        try:
            error = op.call()
        except Exception as exc:  # a library error fails the op, not the run
            error = f"{op.key}: {exc!r}"
        return time.perf_counter() - start, 0, error

    # -- phases ------------------------------------------------------------

    def setup(self) -> float:
        """Build the seeded inputs and run one warm-up op; returns seconds."""
        start = time.perf_counter()
        self.wl.build()
        built = time.perf_counter() - start
        self.wl.references()
        start = time.perf_counter()
        self.run_op(self.wl.cycle()[0], False, [])
        return built + time.perf_counter() - start

    def measure(self, seconds: float) -> float:
        """Run op cycles for ``seconds``; returns the loop's wall time.

        At least one complete cycle runs, and with tracing at least two: one
        traced and one untraced.
        """
        ops = self.wl.cycle()
        min_cycles = 2 if self.trace else 1
        start = time.perf_counter()
        deadline = start + seconds
        cycle = 0
        while True:
            traced = self.trace and cycle % 2 == 0
            tracer = tracing.Tracer() if traced and not self.wl.cli else None
            docs: list = []
            records = []
            if tracer is not None:
                tracer.install()
            try:
                for op in ops:
                    if cycle >= min_cycles and time.perf_counter() >= deadline:
                        break
                    if tracer is not None:
                        tracer.op = self._seq + 1
                    latency, rss = self.run_op(op, traced, docs)
                    records.append((latency, rss, traced))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            self.records += records
            if len(records) < len(ops):
                return time.perf_counter() - start
            if traced:
                self.traced_ops += len(ops)
                if tracer is not None:
                    docs = [{"spans": tracer.spans, "counters": tracer.counters}]
                for doc in docs:
                    self.layer_spans.append(doc["spans"])
                    for name, value in doc["counters"].items():
                        self.counters[name] += value
                    if "startup_s" in doc:
                        self.startups.append(doc["startup_s"])
            cycle += 1

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, wall: float, setups: list[float]) -> tuple[dict, dict]:
        lat = [r[0] for r in self.records]
        tail, pct = tail_latency(lat)
        if self.wl.cli:
            rss_kib = max(r[1] for r in self.records)
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_s": (len(lat) / wall, "1/s"),
            "op_p50_s": (statistics.median(lat), "s"),
            "op_tail_s": (tail, "s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        details = {"samples": len(lat), "tail_percentile": pct, "setup_samples_s": setups}
        return metrics, details

    def per_layer(self) -> tuple[dict, dict]:
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for spans in self.layer_spans:
            c, s = tracing.self_times(spans)
            for name in c:
                calls[name] += c[name]
                self_s[name] += s[name]
        returned, evaluations = 0, 0
        for spans in self.layer_spans:
            r, e = tracing.subset_purity_counts(spans)
            returned += r
            evaluations += e
        ops = self.traced_ops

        def t(*names):
            return sum(self_s[n] for n in names) / ops

        def c(*names):
            return sum(calls[n] for n in names) / ops

        def ratio(num, den):
            return num / den if den else 0.0

        traced = [r[0] for r in self.records if r[2]]
        untraced = [r[0] for r in self.records if not r[2]]
        values = {
            "cli.startup_s": ratio(sum(self.startups), len(self.startups)),
            "cli.main_s": t("cli.main"),
            "cli.load_state_s": t("cli._load_state", "states.load_state",
                                  "states.state_from_dict"),
            "cli.load_bytes": self.counters["cli.load_bytes"] / ops,
            "states.save_state_s": t("states.save_state", "states.state_to_dict"),
            "states.factory_s": t(*(f"states.{f}" for f in FACTORIES)),
            "states.purestate_calls": c("states.PureState"),
            "states.purestate_s": t("states.PureState"),
            "states.densitymatrix_calls": c("states.DensityMatrix"),
            "states.densitymatrix_s": t("states.DensityMatrix"),
            "states.reduced_density_calls": c("states.reduced_density"),
            "states.reduced_density_s": t("states.reduced_density"),
            "states.purity_s": t("states.purity"),
            "states.apply_unitary_calls": c("states.apply_unitary"),
            "states.apply_unitary_s": t("states.apply_unitary"),
            "measures.split_on_qubit_calls": c("measures.split_on_qubit"),
            "measures.split_on_qubit_s": t("measures.split_on_qubit"),
            "measures.wedge_distance_calls": c("measures.wedge_distance"),
            "measures.wedge_distance_s": t("measures.wedge_distance"),
            "measures.wedge_bytes": ratio(self.counters["measures.wedge_bytes"],
                                          calls["measures.wedge_distance"]),
            "measures.q_direct_s": t("measures.q_direct"),
            "measures.q_purity_s": t("measures.q_purity"),
            "protocol.minus_probabilities_s": t("protocol.minus_probabilities"),
            "protocol.sample_outcomes_s": t("protocol.sample_outcomes"),
            "protocol.trials": self.counters["protocol.trials"] / ops,
            "protocol.trials_per_s": ratio(self.counters["protocol.trials"],
                                           self_s["protocol.sample_outcomes"]),
            "protocol.joint_distribution_calls": c("protocol.joint_outcome_distribution"),
            "protocol.joint_distribution_s": t("protocol.joint_outcome_distribution"),
            "protocol.run_report_s": t("protocol.run_report"),
            "protocol.convergence_sweep_s": t("protocol.convergence_sweep"),
            "protocol.subset_purity_circuit_calls": c("protocol.subset_purity_circuit"),
            "protocol.subset_purity_circuit_s": t("protocol.subset_purity_circuit"),
            "protocol.subset_useful_ratio": ratio(returned, evaluations),
            "pulses.sequence_unitary_calls": c("pulses.sequence_unitary"),
            "pulses.sequence_unitary_s": t("pulses.sequence_unitary"),
            "pulses.pulse_unitary_calls": c("pulses.pulse_unitary"),
            "pulses.canonical_s": t("pulses.canonical_swap", "pulses.canonical_cswap",
                                    "pulses.zzz_unitary"),
            "pulses.phase_check_s": t("pulses.phase_aligned_deviation",
                                      "pulses.equal_up_to_global_phase"),
            "trace.op_p50_s": statistics.median(traced),
            "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        }
        metrics = {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
        details = {"traced_ops": ops, "untraced_ops": len(untraced),
                   "subset_purities_returned": returned, "purity_evaluations": evaluations,
                   "wedge_bytes": "computed from array sizes, not measured"}
        return metrics, details


FACTORIES = ("product_state", "ghz_state", "w_state", "cluster_state", "random_state",
             "random_product_state")

LAYER_UNITS = {
    "cli.startup_s": "s/op",
    "cli.main_s": "s/op",
    "cli.load_state_s": "s/op",
    "cli.load_bytes": "B/op",
    "states.save_state_s": "s/op",
    "states.factory_s": "s/op",
    "states.purestate_calls": "calls/op",
    "states.purestate_s": "s/op",
    "states.densitymatrix_calls": "calls/op",
    "states.densitymatrix_s": "s/op",
    "states.reduced_density_calls": "calls/op",
    "states.reduced_density_s": "s/op",
    "states.purity_s": "s/op",
    "states.apply_unitary_calls": "calls/op",
    "states.apply_unitary_s": "s/op",
    "measures.split_on_qubit_calls": "calls/op",
    "measures.split_on_qubit_s": "s/op",
    "measures.wedge_distance_calls": "calls/op",
    "measures.wedge_distance_s": "s/op",
    "measures.wedge_bytes": "B/call",
    "measures.q_direct_s": "s/op",
    "measures.q_purity_s": "s/op",
    "protocol.minus_probabilities_s": "s/op",
    "protocol.sample_outcomes_s": "s/op",
    "protocol.trials": "trials/op",
    "protocol.trials_per_s": "trials/s",
    "protocol.joint_distribution_calls": "calls/op",
    "protocol.joint_distribution_s": "s/op",
    "protocol.run_report_s": "s/op",
    "protocol.convergence_sweep_s": "s/op",
    "protocol.subset_purity_circuit_calls": "calls/op",
    "protocol.subset_purity_circuit_s": "s/op",
    "protocol.subset_useful_ratio": "ratio",
    "pulses.sequence_unitary_calls": "calls/op",
    "pulses.sequence_unitary_s": "s/op",
    "pulses.pulse_unitary_calls": "calls/op",
    "pulses.canonical_s": "s/op",
    "pulses.phase_check_s": "s/op",
    "trace.op_p50_s": "s",
    "trace.overhead_s": "s",
}


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it.

    With too few samples for that, the maximum (percentile 100).
    """
    xs = sorted(latencies)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    rank = len(xs) - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / len(xs)


def provenance(qent) -> dict:
    import numpy

    doc = {
        "qent_file": qent.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo") as f:
            doc["cpu"] = next(ln.split(":", 1)[1].strip() for ln in f
                              if ln.startswith("model name"))
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
            doc["caches"][label] = (index / "size").read_text().strip()
    except (OSError, StopIteration):
        pass
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "qent" / "cli.py").is_file():
        print(f"error: no qent source tree under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import qent

    if Path(qent.__file__).resolve().parent != (src / "qent").resolve():
        print(f"error: imported qent from {qent.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = root / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))

    runner = Runner(workloads.WORKLOADS[args.workload](args.seed, work), env, bool(args.trace))
    setups = [runner.setup() for _ in range(SETUP_REPEATS)]
    runner.wl.after_setup()
    wall = runner.measure(args.seconds)
    if args.trace:
        metrics, details = runner.per_layer()
        (work / "spans.json").write_text(json.dumps(runner.layer_spans))
    else:
        metrics, details = runner.end_to_end(wall, setups)
    for message in runner.failures[:10]:
        print(f"failed op: {message}", file=sys.stderr)
    failed = len(runner.failures)
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   error_rate=failed / runner.attempted, provenance=provenance(qent))
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
