"""CLI sweep: each op of the three CLI workloads and the fixed cost of a process, as subprocesses.

Run from the root of a checkout, naming a second checkout to compare with:

    PYTHONPATH=src python3 scripts/bench_cli.py --parent ../parent

Every row runs ``--reps`` times on each checkout, as ``python3 -m qent.cli
...`` with PYTHONPATH set to that checkout's ``src``; in each rep the two
checkouts alternate which runs first, and the rows are interleaved, so a
drift in the host's speed reaches both sides alike.  Without ``--parent``
only this checkout runs.

Rows:

* every op of one cycle of perfbench's ``q-direct``, ``state-io`` and
  ``protocol`` workloads, built by perfbench/workloads.py from ``--seed``
  and checked as perfbench checks them;
* two larger ops, ``q --route purity`` on a random n = 20 file and
  ``protocol --mode joint`` on a random n = 12 file, which hold the most
  objects and the most memory of any op;
* the fixed cost of a process: a bare interpreter, ``import qent.cli``, the
  same followed by ``gc.freeze()``, and the same ended by ``os._exit(0)``,
  which skips the collection at interpreter shutdown.

Each row reports, per checkout, the median and quartiles of its wall time
and its peak RSS.  The children are spawned, timed and reaped by a small
launcher process, not by this one: Linux charges a child's ``ru_maxrss``
with the RSS its parent had when it spawned the child, so a child of this
process (which holds numpy, qent and the reference states) would report
this process's size.  A child's peak reads about the launcher's own peak
at the least (its VmHWM, given as ``launcher_peak_rss_mib``), which is close
to a bare interpreter's.  Both sides run from
cached bytecode: one untimed pass of every row on each side fills a
bytecode cache of its own (``PYTHONPYCACHEPREFIX``) before the timed reps.
The document is written to ``--out``, replacing it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import sweep

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

CLI_WORKLOADS = ("q-direct", "state-io", "protocol")
SIDES = ("parent", "change")

# the launcher imports nothing beyond json, os, sys and time; it runs one
# child per request line and answers with the child's wall time, peak RSS
# and exit code, and its own VmHWM, the peak that a spawned child's
# ru_maxrss starts from (its own ru_maxrss starts from this process's RSS)
LAUNCHER = r"""
import json, os, sys, time
WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
for line in sys.stdin:
    req = json.loads(line)
    os.chdir(req["cwd"])
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, req["stdout"], WRITE, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, req["stderr"], WRITE, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    with open("/proc/self/status") as f:
        hwm = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    print(json.dumps({"seconds": seconds, "rss_kib": usage.ru_maxrss,
                      "code": os.waitstatus_to_exitcode(status), "launcher_rss_kib": hwm}),
          flush=True)
"""


class Launcher:
    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.peak_kib = 0

    def run(self, argv: list[str], cwd: Path, env: dict) -> tuple[dict, bytes, str]:
        out, err = cwd / "stdout.bin", cwd / "stderr.txt"
        req = {"argv": argv, "cwd": str(cwd), "env": env, "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        result = json.loads(self.proc.stdout.readline())
        self.peak_kib = max(self.peak_kib, result["launcher_rss_kib"])
        return result, out.read_bytes(), err.read_text(errors="replace")

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


class Large(workloads.Workload):
    """The purity route on a random n = 20 file, and the full-joint tally at n = 12."""

    PURITY_N = 20
    JOINT_N = 12
    TRIALS = 1_000_000

    def build(self):
        from qent import states

        self.states = {n: states.random_state(n, workloads.derive_seed(self.seed, 8, n))
                       for n in (self.PURITY_N, self.JOINT_N)}
        for n, st in self.states.items():
            states.save_state(st, self.work / f"random{n}.json")

    def references(self):
        self.purities = {n: workloads.qubit_purities(st.amplitudes, n)
                         for n, st in self.states.items()}

    def cycle(self):
        n, j = self.PURITY_N, self.JOINT_N
        seed = workloads.derive_seed(self.seed, 9)
        return [
            workloads.CliOp(f"q-purity-random{n}", ["q", f"random{n}.json", "--route", "purity"],
                            self._q),
            workloads.CliOp(f"protocol-joint-random{j}",
                            ["protocol", f"random{j}.json", "--trials", str(self.TRIALS),
                             "--mode", "joint", "--seed", str(seed)],
                            self._joint, same_stdout=True),
        ]

    def _q(self, stdout: bytes):
        got = json.loads(stdout)["q"]["purity"]
        return workloads.check_close("Q(purity) at n = 20", got,
                                     workloads.q_from_purities(self.purities[self.PURITY_N]))

    def _joint(self, stdout: bytes):
        doc = json.loads(stdout)
        p_exact = (1.0 - self.purities[self.JOINT_N]) / 2.0
        return workloads.check_sampled("joint n = 12", doc["q_estimate"],
                                       doc["p_minus_per_qubit"], p_exact, self.TRIALS, joint=True)


@dataclass
class Row:
    group: str
    op: workloads.CliOp
    argv: list[str]  # after the interpreter
    cwd: Path
    wl: workloads.Workload | None = None  # holds the digests of same_stdout and same_file ops


def _fixed_rows(cwd: Path) -> list[Row]:
    def empty(stdout: bytes):
        return None if not stdout else f"unexpected stdout {stdout[:80]!r}"

    return [
        Row("fixed", workloads.CliOp(name, [], empty), ["-c", code], cwd)
        for name, code in (
            ("bare-interpreter", "pass"),
            ("import-qent-cli", "import qent.cli"),
            ("import-qent-cli-gc-freeze", "import gc, qent.cli; gc.freeze()"),
            ("import-qent-cli-os-exit", "import os, qent.cli; os._exit(0)"),
        )
    ]


def _check(row: Row, side: str, result: dict, stdout: bytes, stderr: str) -> str | None:
    op = row.op
    if result["code"] != 0:
        return f"exit {result['code']}: {stderr.strip()[-300:]}"
    error = op.check(stdout)
    if error is None and op.same_stdout:
        error = row.wl.repeat_check(f"{side}:{op.key}", stdout)
    if error is None and op.same_file:
        error = row.wl.repeat_check(f"{side}:{op.key}", (row.cwd / op.same_file).read_bytes())
    return error


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _revision(root: Path) -> str | None:
    try:
        rev = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return rev + ("+modified" if dirty else "")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, default=None,
                        help="Root of the checkout to compare with (default: none).")
    parser.add_argument("--reps", type=int, default=21, help="Runs of each row per checkout.")
    parser.add_argument("--seed", type=int, default=1, help="Workload seed.")
    parser.add_argument("--out", default="BENCH_cli.json")
    args = parser.parse_args()

    roots = {"change": Path.cwd()}
    if args.parent is not None:
        roots["parent"] = args.parent.resolve()
    for side, root in roots.items():
        if not (root / "src" / "qent" / "cli.py").is_file():
            parser.error(f"no qent source tree under {root} ({side})")
    sides = [side for side in SIDES if side in roots]

    launcher = Launcher()
    samples: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # each side caches its bytecode in a directory of its own, which the
        # untimed pass below fills, so neither side compiles in a timed run
        # and neither checkout is written to
        base_env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        envs = {side: {**base_env, "PYTHONPATH": str(root / "src"),
                       "PYTHONPYCACHEPREFIX": str(tmp / f"pycache-{side}")}
                for side, root in roots.items()}
        rows = _fixed_rows(tmp)
        wls = []
        for name, cls in [*((name, workloads.WORKLOADS[name]) for name in CLI_WORKLOADS),
                          ("large", Large)]:
            wl = cls(args.seed, tmp / name)
            wl.work.mkdir()
            wl.build()
            wl.references()
            wls.append(wl)
            rows += [Row(name, op, ["-m", "qent.cli", *op.args], wl.work, wl) for op in wl.cycle()]
        # one untimed, unchecked pass on each side writes the files that
        # state-io's gen ops make and its references read
        for row in rows:
            for side in sides:
                launcher.run([sys.executable, *row.argv], row.cwd, envs[side])
        for wl in wls:
            wl.after_setup()

        for rep in range(args.reps):
            order = sides if rep % 2 == 0 else sides[::-1]
            for row in rows:
                for side in order:
                    result, stdout, stderr = launcher.run([sys.executable, *row.argv], row.cwd,
                                                          envs[side])
                    error = _check(row, side, result, stdout, stderr)
                    if error is not None:
                        raise RuntimeError(f"{row.group}/{row.op.key} on {side}: {error}")
                    samples.setdefault((row.op.key, side), []).append(
                        (result["seconds"], result["rss_kib"]))
    launcher.close()

    out_rows = []
    for row in rows:
        key = row.op.key
        entry = {"group": row.group, "op": key, "command": " ".join(["python3", *row.argv])}
        for side in sides:
            seconds = [s for s, _ in samples[(key, side)]]
            rss = [r / 1024 for _, r in samples[(key, side)]]
            q1, median, q3 = _quartiles(seconds)
            entry[side] = {"median_ms": median * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3,
                           "peak_rss_mib_median": statistics.median(rss),
                           "peak_rss_mib_max": max(rss)}
        if len(sides) == 2:
            pairs = zip(samples[(key, "parent")], samples[(key, "change")])
            entry["change_faster_reps"] = sum(c[0] < p[0] for p, c in pairs)
        out_rows.append(entry)

    doc = {
        **sweep.provenance("PYTHONPATH=src python3 scripts/bench_cli.py"
                           + (" --parent <parent checkout>" if args.parent is not None else "")
                           + f" --reps {args.reps} --seed {args.seed}"),
        "revisions": {side: _revision(root) for side, root in roots.items()},
        "reps": args.reps,
        "launcher_peak_rss_mib": launcher.peak_kib / 1024,
        "rows": out_rows,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")

    for entry in out_rows:
        cells = "  ".join(
            f"{side} {entry[side]['median_ms']:7.1f} ms [{entry[side]['q1_ms']:6.1f}, "
            f"{entry[side]['q3_ms']:6.1f}] {entry[side]['peak_rss_mib_median']:6.1f} MiB"
            for side in sides)
        wins = f"  faster {entry['change_faster_reps']}/{args.reps}" if len(sides) == 2 else ""
        print(f"{entry['group']:>8} {entry['op']:<26} {cells}{wins}")


if __name__ == "__main__":
    main()
