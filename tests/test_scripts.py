"""Smoke tests of the benchmark sweeps under scripts/: they import, and the harness merges sections."""

import importlib.util
import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
PROVENANCE = ("command", "python", "numpy", "host")


@pytest.fixture(autouse=True)
def scripts_on_path(monkeypatch):
    # the sweeps import their harness as the top-level module ``sweep``
    monkeypatch.syspath_prepend(str(SCRIPTS))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("bench_*.py")), ids=lambda p: p.stem)
def test_bench_script_imports(path):
    assert callable(_load(path).main)


def test_write_section_keeps_both_sections(tmp_path):
    sweep = _load(SCRIPTS / "sweep.py")
    out = tmp_path / "BENCH_test.json"
    sweep.write_section(out, "before", "cmd --label before", rows=[1])
    sweep.write_section(out, "after", "cmd --label after", rows=[2])
    doc = json.loads(out.read_text())
    assert list(doc) == ["before", "after"]
    for label, rows in (("before", [1]), ("after", [2])):
        assert list(doc[label]) == [*PROVENANCE, "rows"]
        assert doc[label]["command"] == f"cmd --label {label}"
        assert doc[label]["rows"] == rows


@pytest.mark.parametrize("peak,key", [("bytes", "tracemalloc_peak_bytes"),
                                      ("mib", "tracemalloc_peak_mib")])
def test_timed_keys(peak, key):
    sweep = _load(SCRIPTS / "sweep.py")
    assert list(sweep.timed(lambda: None, 3)) == ["calls", "median_s", "min_s"]
    row = sweep.timed(lambda: bytearray(1 << 16), 3, peak=peak)
    assert list(row) == ["calls", "median_s", "min_s", key] and row["calls"] == 3
    assert row[key] >= (1 << 16 if peak == "bytes" else 1 / 16)


def test_timed_setup_gives_each_call_a_fresh_input():
    sweep = _load(SCRIPTS / "sweep.py")
    made, seen = [], []

    def make():
        made.append(object())
        return made[-1]

    row = sweep.timed(seen.append, 3, peak="bytes", setup=make)
    # three timed calls and the tracemalloc call, each on its own input
    assert row["calls"] == 3 and len(made) == 4 and seen == made


def test_timed_cpu_over_wall(monkeypatch):
    sweep = _load(SCRIPTS / "sweep.py")
    # fake clocks: each call takes 2 s of wall time and 3 s of process CPU
    # time, as when a worker thread runs beside the calling one
    wall, cpu = itertools.count(0, 2), itertools.count(0, 3)
    clocks = SimpleNamespace(perf_counter=lambda: next(wall), process_time=lambda: next(cpu))
    monkeypatch.setattr(sweep, "time", clocks)
    row = sweep.timed(lambda: None, 3, cpu=True)
    assert row == {"calls": 3, "median_s": 2, "min_s": 2, "cpu_over_wall": 1.5}
