"""Command-line surface: state generation, Q computation, sequence
verification, and protocol simulation.

Exit codes: 0 success, 1 validation or verification failure, 2 I/O error or
malformed input.  Reports are JSON by default; pass --human for a readable
rendering.

``run`` is the process entry point (``qent`` and ``python -m qent.cli``): it
runs ``main`` with the cyclic garbage collector off, see its docstring.
In-process callers call ``main`` and keep their collector.
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

import click

from . import measures, protocol, pulses, states

VERIFY_TOL = 1e-9


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _save(save, obj, out: str):
    """save(obj, out), exiting 2 if ``out`` cannot be written."""
    try:
        save(obj, out)
    except OSError as exc:
        _fail(2, f"cannot write {out}: {exc}")


def _write_text(text: str, out: str | None):
    if out is None:
        click.echo(text, nl=not text.endswith("\n"))
    else:
        _save(lambda data, path: Path(path).write_text(data), text, out)


def _emit(doc: dict, human_lines: list[str], as_json: bool, out: str | None):
    _write_text(json.dumps(doc, indent=2) + "\n" if as_json else "\n".join(human_lines) + "\n", out)


def _read(load, path: str, what: str):
    """load(path), exiting 2 on an unreadable or malformed file; an invalid ``what`` exits 1."""
    try:
        return load(path)
    except OSError as exc:
        _fail(2, f"cannot read {path}: {exc}")
    except states.MalformedInput as exc:
        _fail(2, str(exc))
    except ValueError as exc:
        raise ValueError(f"invalid {what} in {path}: {exc}") from exc


def _parse_ints(text: str, option: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse {option} {text!r}; expected comma-separated integers")


class _Commands(click.Group):
    """The one exit-code boundary: a ``ValueError`` from any command exits 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            _fail(1, str(exc))


@click.group(cls=_Commands)
def main():
    """Global entanglement Q: generation, measurement, and protocol tools."""


@main.command()
@click.argument("kind", type=click.Choice(["ghz", "w", "cluster", "product", "random"]))
@click.option("--n", type=int, required=True, help="Number of qubits.")
@click.option("--seed", type=int, default=None, help="RNG seed (product/random kinds).")
@click.option("--out", type=str, default=None, help="Output path (default stdout).")
def gen(kind: str, n: int, seed: int | None, out: str | None):
    """Write a state file for a named state family."""
    if kind == "ghz":
        state = states.ghz_state(n)
    elif kind == "w":
        state = states.w_state(n)
    elif kind == "cluster":
        state = states.cluster_state(n)
    elif kind == "product":
        if seed is None:
            state = states.product_state([(1, 0)] * n)
        else:
            state = states.random_product_state(n, seed)
    else:
        state = states.random_state(n, seed)
    if out is None:
        click.echo(states.encode_state(state), nl=False)
    else:
        _save(states.save_state, state, out)


@main.command()
@click.argument("statefile", type=str)
@click.option(
    "--route",
    type=click.Choice(["direct", "purity", "protocol", "all"]),
    default="all",
    show_default=True,
)
@click.option("--json/--human", "as_json", default=True, help="Report format.")
@click.option("--out", type=str, default=None, help="Output path (default stdout).")
def q(statefile: str, route: str, as_json: bool, out: str | None):
    """Compute Q for a state file by one or all routes."""
    state = _read(states.load_state, statefile, "state")
    fns = {
        "direct": measures.q_direct,
        "purity": measures.q_purity,
        "protocol": protocol.q_protocol_exact,
    }
    wanted = list(fns) if route == "all" else [route]
    values = {name: fns[name](state) for name in wanted}
    doc = {"state": statefile, "n_qubits": state.n_qubits, "q": values}
    lines = [f"Q({name}) = {val:.15g}" for name, val in values.items()]
    if route == "all":
        vals = list(values.values())
        spread = max(abs(a - b) for a in vals for b in vals)
        doc["max_pairwise_deviation"] = spread
        lines.append(f"max pairwise deviation = {spread:.3e}")
    _emit(doc, lines, as_json, out)


@main.command()
@click.argument("target", type=click.Choice(["swap", "threebody", "cswap"]))
@click.option("--phi", type=float, default=None, help="Three-body angle (radians).")
@click.option("--g", type=float, default=1.0, show_default=True, help="Coupling strength.")
@click.option("--sign-tunable", is_flag=True, help="Allow both signs of the coupling.")
@click.option("--sequence", "sequence_file", type=str, default=None,
              help="Verify a pulse sequence loaded from this JSON file instead of building one.")
@click.option("--tol", type=float, default=VERIFY_TOL, show_default=True)
@click.option("--json/--human", "as_json", default=True, help="Report format.")
@click.option("--out", type=str, default=None,
              help="Also export the verified sequence as JSON to this path.")
def verify(target, phi, g, sign_tunable, sequence_file, tol, as_json, out):
    """Check a pulse sequence against its canonical gate, up to global phase."""
    if target == "threebody" and phi is None:
        raise ValueError("--phi is required for the threebody target")
    if target != "threebody" and phi is not None:
        raise ValueError("--phi only applies to the threebody target")
    if not states._finite(tol, "--tol") > 0:
        raise ValueError(f"--tol must be > 0, got {tol}")
    if target == "swap":
        seq = pulses.swap_sequence(0, 1)
        canonical = pulses.canonical_swap(0, 1, seq.register_size)
    elif target == "threebody":
        seq = pulses.three_body_sequence(phi, 0, 1, 2)
        canonical = pulses.zzz_unitary(phi, 0, 1, 2, seq.register_size)
    else:
        seq = pulses.cswap_sequence(0, 1, 2)
        canonical = pulses.canonical_cswap(0, 1, 2, seq.register_size)
    if sequence_file is not None:
        size = seq.register_size
        seq = _read(pulses.load_sequence, sequence_file, "sequence")
        if seq.register_size != size:
            raise ValueError(f"sequence register size {seq.register_size} does not match target")
    deviation = pulses.phase_aligned_deviation(canonical, pulses.sequence_unitary(seq))
    time = pulses.interaction_time(seq, pulses.CouplingModel(g, sign_tunable))
    ok = deviation < tol
    doc = {
        "target": target,
        "phi": phi,
        "g": g,
        "sign_tunable": sign_tunable,
        "deviation": deviation,
        "interaction_time": time,
        "tolerance": tol,
        "ok": ok,
    }
    lines = [
        f"target {target}: phase-aligned max deviation = {deviation:.3e} "
        f"({'ok' if ok else 'FAIL'} at tol {tol:g})",
        f"interaction time = {time:.15g} (g = {g:g}, "
        f"{'sign-tunable' if sign_tunable else 'fixed sign'})",
    ]
    if out is not None:
        _save(pulses.save_sequence, seq, out)
    _emit(doc, lines, as_json, None)
    if not ok:
        sys.exit(1)


@main.command("protocol")
@click.argument("statefile", type=str)
@click.option("--trials", type=int, default=None, help="Number of sampled trials.")
@click.option("--seed", type=int, default=0, show_default=True, help="RNG seed.")
@click.option("--mode", type=click.Choice(["exact", "joint"]), default="exact",
              show_default=True,
              help="exact per-qubit marginals, or the full joint ancilla distribution "
                   f"(n <= {protocol.JOINT_MODE_MAX_QUBITS}).")
@click.option("--subset", type=str, default=None,
              help="Comma-separated qubit subset: run the subset-purity protocol instead.")
@click.option("--sweep", type=str, default=None,
              help="Comma-separated ascending trial counts: emit a convergence CSV instead.")
@click.option("--json/--human", "as_json", default=True, help="Report format.")
@click.option("--out", type=str, default=None, help="Output path (default stdout).")
def protocol_cmd(statefile, trials, seed, mode, subset, sweep, as_json, out):
    """Sample the measurement protocol, or run subset-purity / convergence runs."""
    instead = "--subset" if subset is not None else "--sweep" if sweep is not None else None
    for option, given in (("--sweep", subset is not None and sweep is not None),
                          ("--trials", instead is not None and trials is not None),
                          ("--mode joint", instead is not None and mode == "joint")):
        if given:
            raise ValueError(f"{option} does not apply with {instead}")
    state = _read(states.load_state, statefile, "state")
    if subset is not None:
        indices = _parse_ints(subset, "--subset")
        direct = protocol.subset_purity_exact(state, indices)
        fits = protocol._circuit_fits(len(indices), state.n_qubits)
        circuit = protocol.subset_purity_circuit(state, indices) if fits else None
        doc = {
            "state": statefile,
            "subset": indices,
            "purity": direct,
            "purity_circuit": circuit,
            "p_plus": (1.0 + direct) / 2.0,
        }
        lines = [f"purity of subset {indices} = {direct:.15g}"]
        if circuit is not None:
            lines.append(f"circuit route = {circuit:.15g}")
        _emit(doc, lines, as_json, out)
        return
    if sweep is not None:
        counts = _parse_ints(sweep, "--sweep")
        rows = protocol.convergence_sweep(state, counts, seed)
        _write_text(protocol.sweep_csv(rows), out)
        return
    if trials is None:
        raise ValueError("--trials must be a positive integer, got None")
    mode_name = protocol.MODE_EXACT_MARGINAL if mode == "exact" else protocol.MODE_FULL_JOINT
    run = protocol.ProtocolRun(state, trials, seed, mode_name)
    doc = protocol.run_report(run, state_ref=statefile)
    lines = [
        f"Q estimate = {doc['q_estimate']:.15g} +- {doc['std_error']:.3g} "
        f"({trials} trials, {mode_name})",
        "p(-) per qubit: " + ", ".join(f"{p:.6g}" for p in doc["p_minus_per_qubit"]),
    ]
    _emit(doc, lines, as_json, out)


def run():
    """Process entry point: ``main`` on a frozen heap with the cyclic collector off.

    ``gc.freeze`` moves every object alive after start-up (numpy's, click's
    and qent's, over 20,000 of them) out of all later collections, the one
    at interpreter shutdown included, and ``gc.disable`` stops the
    collections that allocating a state file's parsed lists would trigger.
    One command frees its objects by reference counting, so the process
    peaks no higher without the collector, and each command took 17-50 ms
    less on a 2-vCPU host (``BENCH_cli.json``).
    """
    gc.freeze()
    gc.disable()
    main()


if __name__ == "__main__":
    run()
