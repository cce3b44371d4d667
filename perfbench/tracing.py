"""Span tracing of qent's library layers, applied from outside the package.

A ``Tracer`` replaces every public function of ``qent.states``,
``qent.measures``, ``qent.protocol`` and ``qent.pulses`` with a timing
wrapper, and rebinds every name that refers to one of them: module
attributes, names a module imported from another (``purity`` inside
``measures``, ``canonical_cswap`` inside ``protocol``), the package
re-exports and ``qent.cli``'s bindings.  ``PureState`` and ``DensityMatrix``
construction (validation included) is traced through their ``__init__``.
The CLI's own state-file parser ``qent.cli._load_state`` is traced when it
exists.  Nothing under ``src/`` changes; ``uninstall`` restores the
original bindings.

Each span is ``[name, start, end, parent, op]``; spans stay in memory until
the owner writes them out.  Counts that must repeat exactly (bytes parsed,
trials drawn, bytes the wedge kernel allocates) are recorded at the same
boundaries.

Run as a script, this file is the traced stand-in for ``python -m
qent.cli``: it installs the tracer, calls ``qent.cli.main`` under a
``cli.main`` span and writes the spans, counters and start-up time to the
file named by ``PERFBENCH_SPANS``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

LIBRARY_MODULES = ("states", "measures", "protocol", "pulses")
TRACED_CLASSES = ("PureState", "DensityMatrix")
# spans that parse a state file; only the outermost one counts bytes
LOADERS = ("cli._load_state", "states.load_state")


def _wedge_bytes(args, kwargs) -> int:
    """Bytes wedge_distance allocates, computed from its input length.

    Mirrors the kernel as written when this counter was defined: the m x m
    complex outer product and its antisymmetrized copy, two int64 triu index
    arrays, the gathered complex upper triangle, and float64 |.| and |.|**2
    of it.  A kernel that allocates differently needs this formula updated.
    """
    u = args[0] if args else kwargs["u"]
    m = len(u)
    pairs = m * (m - 1) // 2
    return 2 * 16 * m * m + 2 * 8 * pairs + 16 * pairs + 2 * 8 * pairs


def _trials(args, kwargs) -> int:
    run = args[0] if args else kwargs["run"]
    return int(run.n_trials)


def _file_bytes(args, kwargs) -> int:
    path = args[0] if args else kwargs["path"]
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


COUNTERS = {
    "measures.wedge_distance": ("measures.wedge_bytes", _wedge_bytes),
    "protocol.sample_outcomes": ("protocol.trials", _trials),
    "cli._load_state": ("cli.load_bytes", _file_bytes),
    "states.load_state": ("cli.load_bytes", _file_bytes),
}


class Tracer:
    """Records nested spans around qent's public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            if counter is not None and not (
                name in LOADERS and parent >= 0 and tracer.spans[parent][0] in LOADERS
            ):
                tracer.counters[counter[0]] += counter[1](args, kwargs)
            span = [name, 0.0, 0.0, parent, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        import qent
        import qent.cli

        modules = {m: sys.modules[f"qent.{m}"] for m in LIBRARY_MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        loader = getattr(qent.cli, "_load_state", None)
        if inspect.isfunction(loader):
            wrapped[loader] = self.wrap("cli._load_state", loader)
        for mod in (qent, qent.cli, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for cls_name in TRACED_CLASSES:
            cls = getattr(modules["states"], cls_name)
            self._patch(cls, "__init__", self.wrap(f"states.{cls_name}", cls.__init__))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)


def self_times(spans: list[list]) -> tuple[dict[str, int], dict[str, float]]:
    """Call counts and self times by span name.

    A span's self time is its duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - covered[i]
    return calls, self_s


def subset_purity_counts(spans: list[list]) -> tuple[int, int]:
    """(subset purities returned, purity evaluations run).

    Each outermost ``protocol.subset_purity_*`` call returns one purity and
    counts as at least one evaluation; a cross-check that evaluates the
    purity a second way adds one per nested evaluation.
    """
    names = ("protocol.subset_purity_exact", "protocol.subset_purity_direct",
             "protocol.subset_purity_circuit")
    nested: dict[int, int] = defaultdict(int)
    returned = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name not in names:
            continue
        if parent >= 0 and spans[parent][0] in names:
            nested[parent] += 1
        else:
            returned.append(i)
    return len(returned), sum(max(1, nested[i]) for i in returned)


def _child_main() -> int:
    launched = float(os.environ["PERFBENCH_LAUNCH"])
    import qent.cli

    startup = time.time() - launched
    tracer = Tracer()
    tracer.install()
    tracer.op = os.environ.get("PERFBENCH_OP")
    sys.argv = ["qent", *sys.argv[1:]]
    code = 0
    try:
        tracer.wrap("cli.main", qent.cli.main)()
    except SystemExit as exc:
        code = exc.code
    finally:
        doc = {"startup_s": startup, "spans": tracer.spans, "counters": tracer.counters}
        Path(os.environ["PERFBENCH_SPANS"]).write_text(json.dumps(doc))
    if code is None:
        return 0
    if isinstance(code, int):
        return code
    print(code, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(_child_main())
