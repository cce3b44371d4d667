"""Checks of the benchmark itself (not part of the package's test suite).

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# counts that later changes may cite as evidence; each must repeat exactly
EXACT_COUNTS = (
    "measures.wedge_bytes",
    "protocol.subset_purity_circuit_calls",
    "states.purestate_calls",
    "pulses.pulse_unitary_calls",
    "cli.load_bytes",
)


def bench(workload: str, trace: int, seconds: float = 1, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    return doc


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCH["per_layer"]] == list(run.LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(bench(workload, trace=1)) for _ in range(2))
    for doc in (first, second):
        assert doc["correct"] and doc["failed"] == 0
        assert list(doc["metrics"]) == list(run.LAYER_UNITS)
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload != "lib-session":
        assert first["metrics"]["cli.load_bytes"]["value"] > 0
    if workload in ("q-direct", "lib-session"):
        assert first["metrics"]["measures.wedge_bytes"]["value"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    doc = result(bench("lib-session", trace=0))
    assert doc["correct"] and doc["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_spans_nest_cli_over_library_layers(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from qent import states

    states.save_state(states.w_state(3), tmp_path / "w3.json")
    spans_file = tmp_path / "spans.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "PERFBENCH_SPANS": str(spans_file),
           "PERFBENCH_LAUNCH": "0", "PERFBENCH_OP": "1"}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracing.py"),
                           "q", "w3.json", "--route", "all"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_file.read_text())["spans"]

    def chain(i):
        names = []
        while i >= 0:
            names.append(spans[i][0])
            i = spans[i][3]
        return names[::-1]

    chains = {tuple(chain(i)) for i in range(len(spans))}
    assert ("cli.main", "measures.q_purity", "states.reduced_density",
            "states.DensityMatrix") in chains
    assert ("cli.main", "protocol.q_protocol_exact", "protocol.minus_probabilities",
            "states.purity") in chains
    assert ("cli.main", "measures.q_direct", "measures.wedge_distance") in chains
    assert ("cli.main", "cli._load_state", "states.PureState") in chains
    calls, self_s = tracing.self_times(spans)
    assert calls["measures.wedge_distance"] == 3
    assert all(v >= 0 for v in self_s.values())


def test_tracer_uninstall_restores_bindings():
    sys.path.insert(0, str(ROOT / "src"))
    import qent
    import qent.measures

    state = qent.ghz_state(3)
    before = (qent.measures.purity, qent.q_direct, qent.states.PureState.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    assert qent.measures.purity is not before[0]
    qent.q_direct(state)
    tracer.uninstall()
    assert (qent.measures.purity, qent.q_direct, qent.states.PureState.__init__) == before
    assert tracer.spans[0][0] == "measures.q_direct"
    assert {s[0] for s in tracer.spans} == {"measures.q_direct", "measures.split_on_qubit",
                                            "measures.wedge_distance"}


def test_tail_latency_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1, 41)]
    assert run.tail_latency(xs) == (30.0, 75.0)
    assert run.tail_latency(xs[:5]) == (5.0, 100.0)


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("q-direct", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
