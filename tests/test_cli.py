"""End-to-end tests of the command-line interface."""

import gc
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qent import ghz_state, measures, protocol, pulses, states
from qent.cli import main, run
from qent.states import encode_state, random_state, save_state

from conftest import MALFORMED_FILES, bell_bell


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


class TestGen:
    def test_ghz3_file(self, runner, tmp_path):
        out = tmp_path / "ghz3.json"
        result = invoke(runner, "gen", "ghz", "--n", 3, "--out", out)
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["n_qubits"] == 3
        amps = doc["amplitudes"]
        assert np.isclose(amps[0][0], 1 / np.sqrt(2)) and np.isclose(amps[7][0], 1 / np.sqrt(2))

    def test_w4_amplitudes(self, runner):
        result = invoke(runner, "gen", "w", "--n", 4)
        assert result.exit_code == 0
        doc = json.loads(result.output)
        amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
        assert np.allclose(amps[[1, 2, 4, 8]], 0.5)

    def test_random_is_seed_deterministic(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert invoke(runner, "gen", "random", "--n", 5, "--seed", 7, "--out", a).exit_code == 0
        assert invoke(runner, "gen", "random", "--n", 5, "--seed", 7, "--out", b).exit_code == 0
        assert a.read_text() == b.read_text()

    def test_out_bytes_equal_save_state_bytes(self, runner, tmp_path):
        out, saved = tmp_path / "gen.json", tmp_path / "saved.json"
        assert invoke(runner, "gen", "random", "--n", 6, "--seed", 7, "--out", out).exit_code == 0
        save_state(random_state(6, 7), saved)
        assert out.read_bytes() == saved.read_bytes()
        stdout = invoke(runner, "gen", "random", "--n", 6, "--seed", 7).stdout_bytes
        assert stdout == encode_state(random_state(6, 7))

    def test_product_seed_gives_random_factors(self, runner):
        r1 = invoke(runner, "gen", "product", "--n", 3, "--seed", 5)
        r2 = invoke(runner, "gen", "product", "--n", 3, "--seed", 5)
        assert r1.output == r2.output
        plain = invoke(runner, "gen", "product", "--n", 3)
        doc = json.loads(plain.output)
        assert doc["amplitudes"][0] == [1.0, 0.0]

    def test_invalid_n_fails(self, runner):
        result = invoke(runner, "gen", "ghz", "--n", 1)
        assert result.exit_code == 1
        assert "error" in result.output or "error" in (result.stderr or "")

    def test_unknown_kind_rejected(self, runner):
        result = invoke(runner, "gen", "mystery", "--n", 3)
        assert result.exit_code == 2

    def test_unwritable_path_fails(self, runner):
        result = invoke(runner, "gen", "ghz", "--n", 2, "--out", "/nonexistent/dir/x.json")
        assert result.exit_code == 2

    @pytest.mark.parametrize("kind,n", [("random", 40), ("ghz", 64), ("product", 40)])
    def test_qubit_cap_exits_1(self, runner, no_state_numpy, kind, n):
        result = invoke(runner, "gen", kind, "--n", n)
        assert result.exit_code == 1
        assert "error:" in result.output and "MAX_QUBITS = 26" in result.output


class TestQ:
    def test_ghz4_all_routes(self, runner, tmp_path):
        path = tmp_path / "ghz4.json"
        invoke(runner, "gen", "ghz", "--n", 4, "--out", path)
        result = invoke(runner, "q", path, "--route", "all")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        for route in ("direct", "purity", "protocol"):
            assert abs(doc["q"][route] - 1.0) < 1e-9
        assert doc["max_pairwise_deviation"] < 1e-9

    def test_w5_direct(self, runner, tmp_path):
        path = tmp_path / "w5.json"
        invoke(runner, "gen", "w", "--n", 5, "--out", path)
        result = invoke(runner, "q", path, "--route", "direct")
        doc = json.loads(result.output)
        assert abs(doc["q"]["direct"] - 0.64) < 1e-12

    def test_product_zero_by_every_route(self, runner, tmp_path):
        path = tmp_path / "p.json"
        invoke(runner, "gen", "product", "--n", 3, "--seed", 2, "--out", path)
        doc = json.loads(invoke(runner, "q", path).output)
        assert all(abs(v) < 1e-12 for v in doc["q"].values())

    def test_human_output_has_digits(self, runner, tmp_path):
        path = tmp_path / "w3.json"
        invoke(runner, "gen", "w", "--n", 3, "--out", path)
        result = invoke(runner, "q", path, "--route", "purity", "--human")
        assert "Q(purity) = 0.88888888888888" in result.output  # >= 12 digits

    def test_round_trip_is_stable(self, runner, tmp_path):
        path = tmp_path / "r.json"
        invoke(runner, "gen", "random", "--n", 4, "--seed", 3, "--out", path)
        q1 = json.loads(invoke(runner, "q", path).output)["q"]
        q2 = json.loads(invoke(runner, "q", path).output)["q"]
        assert q1 == q2
        assert abs(q1["direct"] - q1["purity"]) < 1e-12

    def test_malformed_file_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert invoke(runner, "q", bad).exit_code == 2
        missing = tmp_path / "missing.json"
        assert invoke(runner, "q", missing).exit_code == 2
        structural = tmp_path / "structural.json"
        structural.write_text(json.dumps({"n_qubits": 2}))
        assert invoke(runner, "q", structural).exit_code == 2

    @pytest.mark.parametrize("body", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys())
    def test_malformed_file_names_path_and_exits_2(self, runner, tmp_path, body):
        path = tmp_path / "bad.json"
        path.write_bytes(body)
        result = invoke(runner, "q", path)
        assert result.exit_code == 2
        assert f"error: malformed state file {path}: " in result.output

    def test_missing_file_names_path_and_exits_2(self, runner, tmp_path):
        path = tmp_path / "missing.json"
        result = invoke(runner, "q", path)
        assert result.exit_code == 2
        assert f"error: cannot read {path}: " in result.output

    @pytest.mark.parametrize("token", ["Infinity", "-Infinity"])
    def test_infinite_amplitude_exits_1(self, runner, tmp_path, token):
        path = tmp_path / "inf.json"
        path.write_text(f'{{"n_qubits": 2, "amplitudes": [[{token}, 0], [0, 0], [0, 0], [0, 0]]}}')
        result = invoke(runner, "q", path)
        assert result.exit_code == 1
        assert f"error: invalid state in {path}: state squared norm" in result.output

    def test_deeply_nested_file_exits_2(self, tmp_path):
        # in a subprocess: a parser that recursed this deep on the C stack
        # would crash the process instead of failing; the last two hide their
        # nesting from a depth count that also counts the brackets in strings
        depth = 300_000
        bodies = [
            b"[" * depth + b"]" * depth,
            b'["]",' * depth + b"1" + b"]" * depth,
            b'{"pad":"' + b"]" * depth + b'","x":' + b"[" * depth + b"]" * depth + b"}",
        ]
        src = Path(__file__).resolve().parents[1] / "src"
        for i, body in enumerate(bodies):
            path = tmp_path / f"deep{i}.json"
            path.write_bytes(body)
            proc = subprocess.run(
                [sys.executable, "-m", "qent.cli", "q", str(path)],
                env={"PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 2, (i, proc.returncode, proc.stderr)
            assert f"error: malformed state file {path}: " in proc.stderr

    def test_malformed_file_exits_2_in_a_process(self, tmp_path):
        # the process entry point, run(), maps the error the same way main() does
        path = tmp_path / "huge.json"
        path.write_bytes(MALFORMED_FILES["huge-integer"])
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "qent.cli", "q", str(path)],
            env={"PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: malformed state file {path}: ")
        assert proc.stderr.count("\n") == 1

    def test_unnormalized_state_exits_1(self, runner, tmp_path):
        bad = tmp_path / "unnorm.json"
        bad.write_text(json.dumps({"n_qubits": 1, "amplitudes": [[1, 0], [1, 0]]}))
        result = invoke(runner, "q", bad)
        assert result.exit_code == 1

    @pytest.mark.parametrize("sign", [1, -1])
    def test_norm_edge_gives_one_verdict_on_every_route(self, runner, tmp_path, sign):
        amps = ghz_state(3).amplitudes
        path = tmp_path / "edge.json"
        routes = ("all", "direct", "purity", "protocol")
        commands = [("q", path, "--route", route) for route in routes]
        commands += [("protocol", path, "--subset", 0),
                     ("protocol", path, "--trials", 1000, "--mode", "joint")]
        # norm 1 +- 0.9e-10 is out of tolerance; squared norm 1 +- 0.9e-10 is in
        for scale, code in ((1 + sign * 0.9e-10, 1), (np.sqrt(1 + sign * 0.9e-10), 0)):
            pairs = (amps * scale).view(float).reshape(-1, 2).tolist()
            path.write_text(json.dumps({"n_qubits": 3, "amplitudes": pairs}))
            for args in commands:
                assert invoke(runner, *args).exit_code == code, args

    def test_state_at_the_norm_bound_gets_an_answer(self, runner, tmp_path):
        # squared norm 1 + 1e-10 in rounding: qubit 1's reduced state has trace
        # 1.0000000001, which a DensityMatrix would reject
        path = tmp_path / "edge.json"
        path.write_text(
            '{"n_qubits":2,"amplitudes":[[0.03180195683636396,0.6020269081337047],'
            '[-0.059288277489595226,-0.20020454307435884],'
            '[0.06731214746684369,-0.5114782746133654],'
            '[-0.5334331054950135,0.20558076265287123]]}'
        )
        result = invoke(runner, "q", path)
        assert result.exit_code == 0
        q = json.loads(result.output)["q"]
        # every route reads the normalized state, so they agree as on any other
        routes = [q["direct"], q["purity"], q["protocol"]]
        assert max(routes) - min(routes) <= 1e-15
        assert invoke(runner, "protocol", path, "--trials", 100).exit_code == 0

    def test_single_qubit_state_exits_1(self, runner, tmp_path):
        # Q is undefined without a remainder register to project onto
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"n_qubits": 1, "amplitudes": [[1, 0], [0, 0]]}))
        assert invoke(runner, "q", path).exit_code == 1

    def test_unknown_flag_rejected(self, runner, tmp_path):
        path = tmp_path / "s.json"
        invoke(runner, "gen", "ghz", "--n", 2, "--out", path)
        assert invoke(runner, "q", path, "--frobnicate").exit_code == 2

    def test_nan_state_exits_1(self, runner, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"n_qubits": 2, "amplitudes": [[NaN, 0], [0, 0], [0, 0], [0, 0]]}')
        result = invoke(runner, "q", path)
        assert result.exit_code == 1
        assert "norm" in result.output

    def test_oversized_qubit_count_exits_1(self, runner, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n_qubits": 100_000, "amplitudes": [[1, 0], [0, 0]]}))
        result = invoke(runner, "q", path)
        assert result.exit_code == 1
        assert "MAX_QUBITS" in result.output

    @pytest.mark.parametrize("n_qubits", ["2.9", "true", '"1"'])
    def test_non_integral_qubit_count_exits_2(self, runner, tmp_path, n_qubits):
        path = tmp_path / "frac.json"
        amps = [[1, 0], [0, 0], [0, 0], [0, 0]] if n_qubits == "2.9" else [[1, 0], [0, 0]]
        path.write_text(f'{{"n_qubits": {n_qubits}, "amplitudes": {json.dumps(amps)}}}')
        result = invoke(runner, "q", path)
        assert result.exit_code == 2
        assert "malformed" in result.output

    def test_direct_route_cap_exits_1(self, runner, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the direct route started")

        monkeypatch.setattr(measures, "_wedge_sum", forbidden)
        path = tmp_path / "big17.json"
        assert invoke(runner, "gen", "product", "--n", 17, "--out", path).exit_code == 0
        for route in ("all", "direct"):
            result = invoke(runner, "q", path, "--route", route)
            assert result.exit_code == 1
            assert "error:" in result.output and "DIRECT_MAX_QUBITS = 16" in result.output
        result = invoke(runner, "q", path, "--route", "purity")
        assert result.exit_code == 0
        assert abs(json.loads(result.output)["q"]["purity"]) < 1e-12


class TestVerify:
    def test_cswap_fixed_sign(self, runner):
        result = invoke(runner, "verify", "cswap", "--g", 1.0)
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["ok"] and doc["deviation"] < 1e-9
        assert abs(doc["interaction_time"] - 27 * np.pi / 4) < 1e-10

    def test_cswap_sign_tunable(self, runner):
        doc = json.loads(invoke(runner, "verify", "cswap", "--g", 1.0, "--sign-tunable").output)
        assert abs(doc["interaction_time"] - 9 * np.pi / 4) < 1e-10

    def test_threebody_zero_angle(self, runner):
        doc = json.loads(invoke(runner, "verify", "threebody", "--phi", 0.0).output)
        assert doc["deviation"] < 1e-12

    def test_swap(self, runner):
        doc = json.loads(invoke(runner, "verify", "swap").output)
        assert doc["ok"]
        assert abs(doc["interaction_time"] - 3 * np.pi / 4) < 1e-10

    def test_phi_requirements(self, runner):
        assert invoke(runner, "verify", "threebody").exit_code == 1
        assert invoke(runner, "verify", "swap", "--phi", 0.3).exit_code == 1

    @pytest.mark.parametrize(
        "args",
        [
            ("cswap", "--g", "inf"),
            ("threebody", "--phi", "nan"),
            ("threebody", "--phi", "inf"),
            ("cswap", "--tol", "nan"),
            ("cswap", "--tol", "0"),
        ],
        ids=["g-inf", "phi-nan", "phi-inf", "tol-nan", "tol-zero"],
    )
    def test_invalid_number_exits_1(self, runner, args):
        result = invoke(runner, "verify", *args)
        assert result.exit_code == 1
        assert result.output.startswith("error:")

    def test_non_finite_phi_named_as_given(self, runner):
        result = invoke(runner, "verify", "threebody", "--phi", "inf")
        assert result.exit_code == 1
        assert result.output == "error: phi must be finite, got inf\n"

    def test_sequence_export_and_reimport(self, runner, tmp_path):
        seq_file = tmp_path / "cswap.json"
        assert invoke(runner, "verify", "cswap", "--out", seq_file).exit_code == 0
        result = invoke(runner, "verify", "cswap", "--sequence", seq_file)
        assert result.exit_code == 0
        assert json.loads(result.output)["ok"]

    def test_tampered_sequence_fails_verification(self, runner, tmp_path):
        seq_file = tmp_path / "swap.json"
        invoke(runner, "verify", "swap", "--out", seq_file)
        doc = json.loads(seq_file.read_text())
        doc["pulses"][0]["angle"] += 0.2
        seq_file.write_text(json.dumps(doc))
        result = invoke(runner, "verify", "swap", "--sequence", seq_file)
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "field,value",
        [("register_size", 2.9), ("rotation", [1.7]), ("ising", [True, 0]),
         ("register_size", "2"), ("rotation", ["0"]), ("ising", ["0", "1"])],
        ids=["register-2.9", "rotation-1.7", "ising-true-0",
             "register-str", "rotation-str", "ising-str"],
    )
    def test_non_integral_index_exits_2(self, runner, tmp_path, field, value):
        seq_file = tmp_path / "swap.json"
        invoke(runner, "verify", "swap", "--out", seq_file)
        doc = json.loads(seq_file.read_text())
        if field == "register_size":
            doc["register_size"] = value
        else:
            pulse = next(p for p in doc["pulses"] if p["kind"] == field)
            pulse["targets"] = value
        seq_file.write_text(json.dumps(doc))
        result = invoke(runner, "verify", "swap", "--sequence", seq_file)
        assert result.exit_code == 2
        assert "must be an integer" in result.output


    @pytest.mark.parametrize("edit", ["huge-angle", "string-angles", "not-json", "deep-nesting"])
    def test_malformed_sequence_exits_2(self, runner, tmp_path, edit):
        seq_file = tmp_path / "swap.json"
        invoke(runner, "verify", "swap", "--out", seq_file)
        if edit == "huge-angle":
            # an integer literal too large for a float
            doc = json.loads(seq_file.read_text())
            doc["pulses"][0]["angle"] = 10**400
            seq_file.write_text(json.dumps(doc))
        elif edit == "string-angles":
            # every angle written as a JSON string that float() would accept
            doc = json.loads(seq_file.read_text())
            for pulse in doc["pulses"]:
                pulse["angle"] = repr(pulse["angle"])
            seq_file.write_text(json.dumps(doc))
        elif edit == "not-json":
            seq_file.write_text("{oops")
        else:
            seq_file.write_text("[" * 100_000 + "]" * 100_000)
        result = invoke(runner, "verify", "swap", "--sequence", seq_file)
        assert result.exit_code == 2
        assert result.output.startswith("error: malformed sequence")
        assert result.output.count("\n") == 1

    def test_invalid_sequence_exits_1(self, runner, tmp_path):
        seq_file = tmp_path / "swap.json"
        invoke(runner, "verify", "swap", "--out", seq_file)
        doc = json.loads(seq_file.read_text())
        doc["pulses"][0]["targets"] = [0, 2]
        seq_file.write_text(json.dumps(doc))
        result = invoke(runner, "verify", "swap", "--sequence", seq_file)
        assert result.exit_code == 1
        assert result.output.startswith(f"error: invalid sequence in {seq_file}: pulse targets")

    def test_infinite_sequence_angle_exits_1(self, runner, tmp_path):
        seq_file = tmp_path / "swap.json"
        invoke(runner, "verify", "swap", "--out", seq_file)
        doc = json.loads(seq_file.read_text())
        doc["pulses"][0]["angle"] = float("inf")
        seq_file.write_text(json.dumps(doc))
        result = invoke(runner, "verify", "swap", "--sequence", seq_file)
        assert result.exit_code == 1
        want = f"error: invalid sequence in {seq_file}: angle must be finite, got inf\n"
        assert result.output == want


class TestProtocol:
    def test_ghz3_sampled_estimate(self, runner, tmp_path):
        path = tmp_path / "ghz3.json"
        invoke(runner, "gen", "ghz", "--n", 3, "--out", path)
        result = invoke(runner, "protocol", path, "--trials", 100_000, "--seed", 1)
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert abs(doc["q_estimate"] - 1.0) <= 3 * doc["std_error"] + 1e-12

    def test_subset_purities_distinguish_states(self, runner, tmp_path):
        bb = tmp_path / "bellbell.json"
        save_state(bell_bell(), bb)
        doc = json.loads(invoke(runner, "protocol", bb, "--subset", "0,1").output)
        assert abs(doc["purity"] - 1.0) < 1e-9
        assert abs(doc["purity_circuit"] - 1.0) < 1e-9
        ghz = tmp_path / "ghz4.json"
        invoke(runner, "gen", "ghz", "--n", 4, "--out", ghz)
        doc = json.loads(invoke(runner, "protocol", ghz, "--subset", "0,1").output)
        assert abs(doc["purity"] - 0.5) < 1e-9

    def test_zero_trials_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "g.json"
        invoke(runner, "gen", "ghz", "--n", 2, "--out", path)
        result = invoke(runner, "protocol", path, "--trials", 0)
        assert result.exit_code == 1

    def test_subset_out_of_range_fails(self, runner, tmp_path):
        path = tmp_path / "g.json"
        invoke(runner, "gen", "ghz", "--n", 2, "--out", path)
        assert invoke(runner, "protocol", path, "--subset", "0,5").exit_code == 1
        assert invoke(runner, "protocol", path, "--subset", "zero").exit_code == 1

    def test_joint_mode_beyond_bound_fails(self, runner, tmp_path):
        path = tmp_path / "beyond.json"
        invoke(runner, "gen", "ghz", "--n", protocol.JOINT_MODE_MAX_QUBITS + 1, "--out", path)
        result = invoke(runner, "protocol", path, "--trials", 10, "--mode", "joint")
        assert result.exit_code == 1
        assert f"JOINT_MODE_MAX_QUBITS = {protocol.JOINT_MODE_MAX_QUBITS}" in result.output

    @pytest.mark.parametrize("n", [5, protocol.JOINT_MODE_MAX_QUBITS])
    def test_joint_mode_runs_up_to_the_cap(self, runner, tmp_path, n):
        path = tmp_path / f"g{n}.json"
        invoke(runner, "gen", "ghz", "--n", n, "--out", path)
        args = ("protocol", path, "--trials", 100_000, "--mode", "joint", "--seed", 9)
        first, again = invoke(runner, *args), invoke(runner, *args)
        assert first.exit_code == 0 and first.output == again.output
        doc = json.loads(first.output)
        assert doc["mode"] == "full-joint"
        # GHZ: every qubit is maximally mixed, p(-) = 1/4 and Q = 1
        assert abs(doc["q_estimate"] - 1.0) < 5 * doc["std_error"]

    def test_sweep_csv(self, runner, tmp_path):
        path = tmp_path / "w3.json"
        invoke(runner, "gen", "w", "--n", 3, "--out", path)
        csv_out = tmp_path / "sweep.csv"
        result = invoke(
            runner, "protocol", path, "--sweep", "100,1000", "--seed", 4, "--out", csv_out
        )
        assert result.exit_code == 0
        lines = csv_out.read_text().strip().split("\n")
        assert lines[0] == "n_trials,abs_error"
        assert len(lines) == 3

    @pytest.mark.parametrize("sweep", [",", ""])
    def test_empty_sweep_exits_1(self, runner, tmp_path, sweep):
        path = tmp_path / "w3.json"
        invoke(runner, "gen", "w", "--n", 3, "--out", path)
        result = invoke(runner, "protocol", path, "--sweep", sweep)
        assert result.exit_code == 1
        assert "error:" in result.output and "n_trials" not in result.output

    def test_sweep_negative_seed_exits_1(self, runner, tmp_path):
        path = tmp_path / "g3.json"
        invoke(runner, "gen", "ghz", "--n", 3, "--out", path)
        result = invoke(runner, "protocol", path, "--sweep", "10,20", "--seed", -1)
        assert result.exit_code == 1
        assert "error: seed must be a nonnegative integer, got -1" in result.output

    def test_nan_state_exits_1(self, runner, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"n_qubits": 2, "amplitudes": [[NaN, 0], [0, 0], [0, 0], [0, 0]]}')
        assert invoke(runner, "protocol", path, "--trials", 100).exit_code == 1

    def test_single_qubit_trials_exits_1(self, runner, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"n_qubits": 1, "amplitudes": [[1, 0], [0, 0]]}))
        result = invoke(runner, "protocol", path, "--trials", 100)
        assert result.exit_code == 1
        assert "n >= 2" in result.output

    def test_trials_beyond_cap_exits_1(self, runner, tmp_path):
        path = tmp_path / "g.json"
        invoke(runner, "gen", "ghz", "--n", 2, "--out", path)
        result = invoke(runner, "protocol", path, "--trials", 2**60 + 1)
        assert result.exit_code == 1
        assert "2**60" in result.output
        assert invoke(runner, "protocol", path, "--trials", 2**60).exit_code == 0

    def test_sweep_parse_error_names_option(self, runner, tmp_path):
        path = tmp_path / "w3.json"
        invoke(runner, "gen", "w", "--n", 3, "--out", path)
        result = invoke(runner, "protocol", path, "--sweep", "10,abc")
        assert result.exit_code == 1
        assert "cannot parse --sweep '10,abc'" in result.output

    def test_deterministic_given_flags(self, runner, tmp_path):
        path = tmp_path / "w3.json"
        invoke(runner, "gen", "w", "--n", 3, "--out", path)
        r1 = invoke(runner, "protocol", path, "--trials", 5000, "--seed", 9)
        r2 = invoke(runner, "protocol", path, "--trials", 5000, "--seed", 9)
        assert r1.output == r2.output

    @pytest.mark.parametrize("args,message", [
        (("--subset", "0", "--sweep", "10,100"), "--sweep does not apply with --subset"),
        (("--subset", "0", "--trials", 10), "--trials does not apply with --subset"),
        (("--subset", "0", "--mode", "joint"), "--mode joint does not apply with --subset"),
        (("--sweep", "10,100", "--trials", 10), "--trials does not apply with --sweep"),
        (("--sweep", "10,100", "--mode", "joint"), "--mode joint does not apply with --sweep"),
    ], ids=["subset-sweep", "subset-trials", "subset-mode", "sweep-trials", "sweep-mode"])
    def test_options_that_do_not_apply_exit_1(self, runner, tmp_path, args, message):
        # rejected before the state file is read, so a missing file does not exit 2
        result = invoke(runner, "protocol", tmp_path / "missing.json", *args)
        assert result.exit_code == 1
        assert result.output == f"error: {message}\n"

    @pytest.mark.parametrize("args", [("--subset", "0"), ("--sweep", "10,100")])
    def test_default_mode_applies_with_subset_and_sweep(self, runner, tmp_path, args):
        path = tmp_path / "w3.json"
        invoke(runner, "gen", "w", "--n", 3, "--out", path)
        with_mode = invoke(runner, "protocol", path, *args, "--mode", "exact")
        assert with_mode.exit_code == 0
        assert with_mode.output == invoke(runner, "protocol", path, *args).output


class TestExitCodeBoundary:
    @pytest.mark.parametrize("module,name,args", [
        (states, "ghz_state", ("gen", "ghz", "--n", 3)),
        (measures, "q_direct", ("q", "{state}", "--route", "direct")),
        (pulses, "swap_sequence", ("verify", "swap")),
        (protocol, "run_report", ("protocol", "{state}", "--trials", 10)),
        (protocol, "subset_purity_exact", ("protocol", "{state}", "--subset", "0")),
        (protocol, "convergence_sweep", ("protocol", "{state}", "--sweep", "10,100")),
    ], ids=["gen", "q", "verify", "protocol-sampled", "protocol-subset", "protocol-sweep"])
    def test_value_error_exits_1_with_one_line(self, runner, tmp_path, monkeypatch,
                                               module, name, args):
        path = tmp_path / "w3.json"
        save_state(states.w_state(3), path)

        def boom(*a, **k):
            raise ValueError("boom")

        monkeypatch.setattr(module, name, boom)
        result = invoke(runner, *(str(path) if a == "{state}" else a for a in args))
        assert result.exit_code == 1
        assert result.output == "error: boom\n"


class TestEntryPoint:
    def test_run_freezes_the_heap_then_disables_the_collector(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
        monkeypatch.setattr(sys, "argv", ["qent", "--help"])
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 0
        assert calls == ["freeze", "disable"]

    def test_main_keeps_the_collector_of_an_in_process_caller(self, runner):
        assert gc.isenabled()
        assert invoke(runner, "verify", "swap").exit_code == 0
        assert gc.isenabled()

    def test_console_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts["qent"] == "qent.cli:run"
