"""Harness shared by the scripts/bench_*.py sweeps: timed calls, provenance, BENCH files.

Each sweep times its kernels with ``timed``, labels the host and the
command with ``provenance``, and merges its labelled section into its
``BENCH_<topic>.json`` with ``write_section``, so two checkouts measured
under the same command land side by side in one file.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np


def timed(fn, repeats: int, peak: str | None = None, setup=None, cpu: bool = False) -> dict:
    """Call count, median and minimum wall time of ``repeats`` calls of ``fn``.

    With ``setup``, each call is ``fn(setup())`` and only ``fn`` is timed,
    so that every call can get fresh inputs, such as a new copy of a state
    whose purities the state would otherwise remember from the call before.
    With ``cpu``, the process CPU time of the timed calls over their wall
    time is added as ``cpu_over_wall``: above 1 means that worker threads ran.
    With ``peak`` set to "bytes" or "mib", one more call runs under
    tracemalloc and its peak is added as ``tracemalloc_peak_<peak>``;
    tracemalloc sees only what goes through Python's allocator.
    """
    make = setup or (lambda: None)
    call = fn if setup else lambda _: fn()
    times, cpu_s = [], 0.0
    for _ in range(repeats):
        arg = make()
        cpu_start = time.process_time()
        start = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - start)
        cpu_s += time.process_time() - cpu_start
    row = {"calls": repeats, "median_s": statistics.median(times), "min_s": min(times)}
    if cpu:
        row["cpu_over_wall"] = cpu_s / sum(times)
    if peak is not None:
        arg = make()
        tracemalloc.start()
        try:
            call(arg)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row[f"tracemalloc_peak_{peak}"] = peak_bytes if peak == "bytes" else peak_bytes / 2**20
    return row


def provenance(command: str) -> dict:
    """The command that produced a result, with the interpreter, numpy and host it ran on."""
    return {
        "command": command,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
    }


def write_section(path: str | Path, label: str, command: str, **fields) -> None:
    """Store ``fields`` under ``label`` in the JSON file at ``path``, after the provenance.

    The file's other sections are kept.
    """
    path = Path(path)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[label] = {**provenance(command), **fields}
    path.write_text(json.dumps(doc, indent=2) + "\n")
