import json
from pathlib import Path
from random import Random

import pytest
from jsonschema import Draft202012Validator

from qkclab import encode, random_state, rotated_basis, state_to_json, zero_state
from qkclab import cli
from qkclab.cli import main
from qkclab.proglang import OPS, _op_alphabet
from qkclab.statevec import ROT, X, apply_gate

from oracles import Counted, reference_projection_oracle

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "output_schema.json").read_text()
)
VALIDATOR = Draft202012Validator(SCHEMA)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def validate(obj):
    VALIDATOR.validate(obj)


class TestKplan:
    def test_frozen_value(self, capsys):
        rc, out = run_cli(capsys, "kplan", "--n", "4", "--alpha", "0.01", "--epsilon", "0.25")
        assert rc == 0
        record = json.loads(out)
        assert record["k"] == 975
        validate(record)

    def test_epsilon_out_of_range_is_usage_error(self, capsys):
        rc, _ = run_cli(capsys, "kplan", "--n", "2", "--alpha", "0.05", "--epsilon", "0.6")
        assert rc == 2

    def test_alpha_one_is_usage_error(self, capsys):
        rc, _ = run_cli(capsys, "kplan", "--n", "2", "--alpha", "1", "--epsilon", "0.25")
        assert rc == 2


class TestEstimate:
    def test_classical_zeros(self, capsys):
        rc, out = run_cli(capsys, "estimate", "--classical", "00", "--n", "2", "--max-len", "12")
        assert rc == 0
        record = json.loads(out)
        assert record["best"]["total"] == 1
        assert record["status"] == "ok"
        validate(record)

    def test_program_target_gets_penalty_zero(self, capsys):
        prog = encode([X(0)], 1)
        arg = f"{prog.length}:{prog.value:x}"
        rc, out = run_cli(
            capsys, "estimate", "--target-program", arg, "--n", "1", "--max-len", "10"
        )
        assert rc == 0
        record = json.loads(out)
        assert record["best"]["penalty"] == 0
        assert record["best"]["total"] == 7
        validate(record)

    def test_no_finite_estimate_exit_code(self, capsys):
        rc, out = run_cli(capsys, "estimate", "--classical", "1", "--n", "1", "--max-len", "1")
        assert rc == 3
        record = json.loads(out)
        assert record["status"] == "no_finite_estimate"
        assert record["best"] is None
        validate(record)

    def test_conditional_caps_the_estimate(self, capsys):
        cond = encode([X(0)], 1)
        rc, out = run_cli(
            capsys,
            "estimate", "--classical", "1", "--n", "1", "--max-len", "12",
            "--conditional", f"{cond.length}:{cond.value:x}",
        )
        assert rc == 0
        record = json.loads(out)
        assert record["best"]["total"] == 6
        validate(record)

    def test_sampled_mode(self, capsys):
        rc, out = run_cli(
            capsys,
            "estimate", "--classical", "00", "--n", "2", "--max-len", "10",
            "--sampled", "--alpha", "0.05", "--epsilon", "0.25", "--seed", "7",
        )
        assert rc == 0
        record = json.loads(out)
        assert record["mode"] == "sampled"
        assert record["plan"]["k"] >= 554
        assert 1.0 <= record["best"]["estimate"] <= 2.0
        validate(record)

    def test_sampled_records_match_the_fraction_oracle(self, capsys, tmp_path, monkeypatch):
        # the sampled command writes the same bytes when its oracle draws on
        # the Fraction-path fidelity, for classical targets and state files.
        # Only the random state's scanned rows have fidelities that reduce,
        # so only it would show a draw on an unreduced denominator.
        targets = [("--classical", bits) for bits in ("00", "01", "10", "11")]
        for name, state in (("rotated", rotated_basis(2).vectors[1]),
                            ("random", random_state(2, Random(1)))):
            statefile = tmp_path / f"{name}.json"
            statefile.write_text(json.dumps(state_to_json(state)))
            targets.append(("--statefile", str(statefile)))

        def records():
            found = []
            for flag, value in targets:
                for seed in range(4):
                    out = tmp_path / "record.json"
                    rc, _ = run_cli(
                        capsys, "estimate", flag, value, "--n", "2", "--max-len", "12",
                        "--sampled", "--seed", str(seed), "--out", str(out),
                    )
                    assert rc == 0
                    found.append(out.read_bytes())
            return found

        kernel = records()
        built = Counted(reference_projection_oracle)
        monkeypatch.setattr(cli, "projection_oracle", built)
        assert records() == kernel
        assert built.calls == len(kernel)

    def test_statefile_round_trip(self, capsys, tmp_path):
        state = apply_gate(zero_state(1), ROT(0))
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json(state)))
        rc, out = run_cli(
            capsys, "estimate", "--statefile", str(path), "--n", "1", "--max-len", "8"
        )
        assert rc == 0
        record = json.loads(out)
        assert record["best"]["total"] == 3
        validate(record)

    def test_malformed_statefile_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        for text in (
            "{not json",
            '{"n": 1, "amps": [["1", "0", "0", "1"], ["0", "1", "0", "1"]]}',
            '{"n": "100000000000000000000", "amps": [["1", "1", "0", "1"]]}',
        ):
            path.write_text(text)
            rc, _ = run_cli(
                capsys, "estimate", "--statefile", str(path), "--n", "1", "--max-len", "4"
            )
            assert rc == 2, text

    def test_dimension_mismatch_is_usage_error(self, capsys):
        rc, _ = run_cli(capsys, "estimate", "--classical", "01", "--n", "1")
        assert rc == 2

    def test_exactly_one_target_required(self, capsys):
        rc, _ = run_cli(capsys, "estimate", "--n", "2")
        assert rc == 2


class TestProgramTools:
    def test_enumerate_one_bit(self, capsys):
        rc, out = run_cli(capsys, "enumerate", "--max-len", "1", "--n", "2")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["bits"] == "1"

    def test_negative_limit_is_usage_error(self, capsys):
        rc = main(["enumerate", "--max-len", "6", "--n", "1", "--limit", "-3"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "--limit must be nonnegative" in captured.err

    def test_decode_header_only(self, capsys):
        rc, out = run_cli(capsys, "decode", "--bits", "1", "--n", "2")
        assert rc == 0
        record = json.loads(out)
        assert record["decodable"] is True
        assert record["gates"] == []
        validate(record)

    def test_decode_reports_undecodable(self, capsys):
        rc, out = run_cli(capsys, "decode", "--bits", "0101010", "--n", "2")
        assert rc == 0
        record = json.loads(out)
        assert record["decodable"] is False
        validate(record)

    def test_encode_decode_round_trip(self, capsys):
        rc, out = run_cli(capsys, "encode", "--gates", "X:0,CNOT:0:1,ROT:1", "--n", "2")
        assert rc == 0
        encoded = json.loads(out)
        validate(encoded)
        rc, out = run_cli(capsys, "decode", "--bits", encoded["bits"], "--n", "2")
        record = json.loads(out)
        assert record["gates"] == ["X:0", "CNOT:0:1", "ROT:1"]

    def test_every_op_token_round_trips(self, capsys):
        tokens = [cli._gate_str(op) for _bits, op in _op_alphabet(3)]
        assert {t.split(":")[0] for t in tokens} == {op.__name__ for op in OPS}
        rc, out = run_cli(capsys, "encode", "--gates", ",".join(tokens), "--n", "3")
        assert rc == 0
        rc, out = run_cli(capsys, "decode", "--bits", json.loads(out)["bits"], "--n", "3")
        assert rc == 0
        assert json.loads(out)["gates"] == tokens

    def test_encode_rejects_bad_index(self, capsys):
        rc, _ = run_cli(capsys, "encode", "--gates", "X:5", "--n", "2")
        assert rc == 2

    def test_encode_rejects_bad_token(self, capsys):
        rc, _ = run_cli(capsys, "encode", "--gates", "HADAMARD:0", "--n", "2")
        assert rc == 2


class TestReports:
    def test_census_files_and_verdict(self, capsys, tmp_path):
        rc, out = run_cli(
            capsys,
            "census", "--n", "2", "--c", "1", "--max-len", "12",
            "--out-dir", str(tmp_path), "--cache-dir", str(tmp_path / "cache"),
        )
        assert rc == 0
        summary = json.loads(out)
        assert summary["verdict"] is True
        for path in summary["files"]:
            assert Path(path).exists()
        report = json.loads(Path(summary["files"][0]).read_text())
        validate(report)
        manifest = json.loads(Path(summary["files"][2]).read_text())
        validate(manifest)

    def test_census_reruns_are_byte_identical(self, capsys, tmp_path):
        args = (
            "census", "--n", "2", "--c", "1", "--max-len", "10",
            "--out-dir", str(tmp_path), "--cache-dir", str(tmp_path / "cache"),
        )
        rc, out1 = run_cli(capsys, *args)
        files = json.loads(out1)["files"]
        first = [Path(f).read_bytes() for f in files]
        rc, out2 = run_cli(capsys, *args)
        second = [Path(f).read_bytes() for f in files]
        assert out1 == out2
        assert first == second

    def test_consistency_csv(self, capsys, tmp_path):
        rc, out = run_cli(
            capsys, "consistency", "--n", "2", "--max-len", "12", "--out-dir", str(tmp_path)
        )
        assert rc == 0
        summary = json.loads(out)
        assert summary["max_gap"] == 0
        csv_lines = Path(summary["files"][1]).read_text().strip().splitlines()
        assert len(csv_lines) == 5  # header + one row per classical string
        for line in csv_lines[1:]:
            gap = int(line.rsplit(",", 1)[1])
            assert gap >= 0
        report = json.loads(Path(summary["files"][0]).read_text())
        validate(report)

    def test_subadd_report(self, capsys, tmp_path):
        px = encode([ROT(0)], 1)
        rc, out = run_cli(
            capsys,
            "subadd", "--px", f"{px.length}:{px.value:x}", "--py", "1:1",
            "--max-len", "16", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        summary = json.loads(out)
        assert summary["conclusive"] is True
        assert summary["slack"] >= 0
        report = json.loads(Path(summary["files"][0]).read_text())
        validate(report)

    def test_subadd_rejects_undecodable_program(self, capsys, tmp_path):
        rc, _ = run_cli(
            capsys,
            "subadd", "--px", "7:55", "--py", "1:1",
            "--max-len", "16", "--out-dir", str(tmp_path),
        )
        assert rc == 2


class TestConfig:
    def test_config_file_sets_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("max_len = 8\nn = 1\nseed = 3  # comment\n")
        rc, out = run_cli(
            capsys, "estimate", "--classical", "0", "--config", str(cfg)
        )
        assert rc == 0
        record = json.loads(out)
        assert record["config"]["max_len"] == 8
        assert record["config"]["n"] == 1
        assert record["config"]["seed"] == 3

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("max_len = 8\n")
        rc, out = run_cli(
            capsys, "estimate", "--classical", "00", "--n", "2",
            "--config", str(cfg), "--max-len", "10",
        )
        record = json.loads(out)
        assert record["config"]["max_len"] == 10

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        for line in ("wibble = 3", "format = json"):
            cfg.write_text(line + "\n")
            rc, _ = run_cli(capsys, "estimate", "--classical", "00", "--config", str(cfg))
            assert rc == 2, line

    def test_unparsable_config_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("n = abc\n")
        rc, _ = run_cli(capsys, "estimate", "--classical", "00", "--config", str(cfg))
        assert rc == 2

    def test_cache_dir_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QKCLAB_CACHE_DIR", str(tmp_path / "envcache"))
        rc, out = run_cli(capsys, "estimate", "--classical", "00", "--n", "2", "--max-len", "8")
        assert rc == 0
        record = json.loads(out)
        assert record["config"]["cache_dir"] == str(tmp_path / "envcache")
        assert (tmp_path / "envcache").exists()

    def test_estimate_reruns_identical(self, capsys):
        args = ("estimate", "--classical", "00", "--n", "2", "--max-len", "10",
                "--sampled", "--seed", "5")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2


# k = ceil(6 (2n - log2 alpha + slack) / (epsilon^2 log2 e)) is no finite
# integer: epsilon^2 underflows to 0, or slack is not a finite number
K_NOT_FINITE = {
    "kplan-epsilon-underflow": ["kplan", "--n", "2", "--epsilon", "1e-200"],
    "sampled-epsilon-underflow": [
        "estimate", "--classical", "00", "--n", "2", "--sampled", "--epsilon", "1e-200",
        "--max-len", "4",
    ],
    "kplan-slack-inf": ["kplan", "--slack", "inf"],
    "kplan-slack-nan": ["kplan", "--slack", "nan"],
}


class TestExitCodes:
    """Exit 2 means the input was wrong; a fault inside a command surfaces."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--classical", "0a", "--n", "2"],
            ["estimate", "--classical", "01", "--n", "2", "--sampled", "--alpha", "1.5"],
            ["census", "--c", "-1", "--n", "1", "--max-len", "6"],
            ["decode", "--bits", "2", "--n", "1"],
            ["decode", "--n", "1"],
            ["subadd", "--px", "1:1", "--py", "1:1", "--nx", "0", "--ny", "0"],
            ["subadd", "--px", "1:1", "--py", "1:1", "--nx", "2", "--ny", "1"],
            ["estimate", "--classical", "0", "--n", "1", "--max-len", "4", "--alpha", "1.5"],
            ["estimate", "--classical", "0", "--n", "1", "--max-len", "4", "--epsilon", "0.5"],
            ["estimate", "--classical", "0", "--n", "1", "--max-len", "0"],
            ["census", "--n", "1", "--c", "1", "--max-len", "-3"],
            ["decode", "--bits", "0 1", "--n", "1"],
            *K_NOT_FINITE.values(),
        ],
        ids=[
            "classical-not-bits", "sampled-alpha", "census-negative-c",
            "decode-not-bits", "decode-no-input", "subadd-zero-qubits",
            "subadd-unequal-widths", "exact-alpha", "exact-epsilon",
            "estimate-zero-max-len", "census-negative-max-len", "decode-inner-space",
            *K_NOT_FINITE,
        ],
    )
    def test_bad_input_is_usage_error(self, capsys, tmp_path, argv):
        rc, _ = run_cli(capsys, *argv, "--out-dir", str(tmp_path))
        assert rc == 2

    @pytest.mark.parametrize("argv", K_NOT_FINITE.values(), ids=K_NOT_FINITE)
    def test_a_k_that_is_not_a_finite_integer_names_the_bad_value(
        self, capsys, tmp_path, argv
    ):
        rc = main([*argv, "--out-dir", str(tmp_path)])
        bad = argv[argv.index("--slack" if "--slack" in argv else "--epsilon") + 1]
        assert rc == 2 and f"{float(bad)}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--classical", "0"],
            ["census", "--c", "1"],
            ["consistency"],
            ["encode", "--gates", "X:0"],
            ["decode", "--bits", "1"],
            ["enumerate", "--max-len", "3"],
            ["kplan"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_zero_qubits_is_usage_error(self, capsys, tmp_path, argv):
        rc, _ = run_cli(capsys, *argv, "--n", "0", "--out-dir", str(tmp_path))
        assert rc == 2

    def test_a_program_value_past_its_length_is_a_bad_argument(self, capsys, tmp_path):
        # 0:1 is no program: one bit set in a length of zero
        argv = ["estimate", "--target-program", "0:1", "--n", "1", "--max-len", "4"]
        rc = main([*argv, "--out-dir", str(tmp_path)])
        assert rc == 2 and "bad program argument '0:1'" in capsys.readouterr().err

    def test_internal_value_error_propagates(self, capsys, monkeypatch):
        def broken(*_args, **_kwargs):
            raise ValueError("internal invariant violated")

        monkeypatch.setattr(cli, "exact_estimate", broken)
        with pytest.raises(ValueError, match="internal invariant violated"):
            main(["estimate", "--classical", "00", "--n", "2", "--max-len", "6"])
