import hashlib
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from itertools import product
from types import SimpleNamespace

import pytest

from qkclab import (
    CALLC,
    ENCODING_VERSION,
    ROT,
    X,
    Program,
    basis_state,
    cached_outputs,
    candidate_table,
    decode,
    encode,
    enumerate_decoded,
    enumerate_programs,
    program_to_json,
    run,
    state_to_json,
    zero_state,
)
from qkclab import census, cli, executor, proglang
from qkclab.cli import CACHE_ENV_VAR, main
from qkclab.executor import _build_table, _canonical, cache_path

from oracles import Counted, reference_firsts, reference_op_fields


def conditional_of(gates, n):
    return decode(encode(gates, n).bits, n, allow_callc=False)


def short_conditionals(n, depth=2):
    """Every CALLC-free conditional of up to `depth` gates on n qubits."""
    alphabet = [op for _bits, op in reference_op_fields(n) if op != CALLC()]
    return [
        conditional_of(gates, n)
        for k in range(depth + 1)
        for gates in product(alphabet, repeat=k)
    ]


def run_rows(n, max_len, conditional=None):
    """(index, program, output) of every halting program, each run on its own."""
    return [
        (idx, prog, result.output)
        for idx, prog in enumerate(enumerate_programs(max_len, n))
        if (result := run(prog, n, conditional)).output is not None
    ]


def build_steps(n, max_len, conditional=None):
    """Gate applications of a table build, derived from running each program
    alone: one step per distinct (parent output, last op) pair, the parent
    being the program minus its last op, and len(conditional.gates) for a
    pair whose op is CALLC.  Call it before counting: it runs every program
    through the counted gate."""
    outputs = {
        decode(prog.bits, n).gates: out for _idx, prog, out in run_rows(n, max_len, conditional)
    }
    pairs = {(outputs[gates[:-1]], gates[-1]) for gates in outputs if gates}
    return sum(len(conditional.gates) if op == CALLC() else 1 for _parent, op in pairs)


def write_with_hash(path, data):
    """Replace a cache file's body with `data`, and its header's sha256 with
    the new body's, so that only the reader's other checks can reject it."""
    body = _canonical(data)
    header = json.loads(path.read_text().splitlines()[0])
    header["sha256"] = hashlib.sha256(body.encode("ascii")).hexdigest()
    path.write_text(_canonical(header) + "\n" + body + "\n")


def old_layout_file(table, layout):
    """The text of `table` in an older cache layout, valid in that layout."""
    if layout == "per-record":
        # a header line, then one record per halting program with its full
        # output and a sha over the record
        header = {"version": ENCODING_VERSION, "n": table.n, "max_len": table.max_len,
                  "records": len(table.rows)}
        lines = [_canonical(header)]
        for _idx, prog, out in table.rows:
            record = {"program": program_to_json(prog), "output": state_to_json(out)}
            record["sha"] = hashlib.sha256(_canonical(record).encode("ascii")).hexdigest()
            lines.append(_canonical(record))
    elif layout == "outputs+rows":
        # each distinct output once, and rows of [program, output id] with no
        # index, which a read took from the enumeration
        outputs = [out for _i, _p, out in table.firsts]
        ids = {id(out): k for k, out in enumerate(outputs)}
        rows = [[program_to_json(prog), ids[id(out)]] for _i, prog, out in table.rows]
        body = _canonical({"outputs": [state_to_json(out) for out in outputs], "rows": rows})
        header = {
            "format": "outputs+rows",
            "version": ENCODING_VERSION,
            "n": table.n,
            "max_len": table.max_len,
            "rows": len(rows),
            "outputs": len(outputs),
            "sha256": hashlib.sha256(body.encode("ascii")).hexdigest(),
        }
        lines = [_canonical(header), body]
    else:
        raise ValueError(layout)
    return "\n".join(lines) + "\n"


def break_body(data, fault):
    """One fault in a parsed cache body that its hash cannot reveal."""
    if fault == "non-unit-norm":
        data["outputs"][0]["amps"][0][0] = "2"
    elif fault == "wrong-n":
        data["outputs"][0] = state_to_json(zero_state(2))
    elif fault == "id-past-end":
        data["rows"][-1][2] = len(data["outputs"])
    elif fault == "negative-id":
        data["rows"][-1][2] = -1
    elif fault == "bool-id":
        data["rows"][-1][2] = True  # an int subclass, and not an id
    elif fault == "index-not-increasing":
        data["rows"][-1][0] = data["rows"][-2][0]
    elif fault == "negative-index":
        data["rows"][0][0] = -1
    elif fault == "float-index":
        data["rows"][-1][0] += 0.5
    elif fault == "float-part":
        data["outputs"][0]["amps"][0][0] = 1.0  # int() would read it as 1
    elif fault == "float-n":
        data["outputs"][0]["n"] = 1.0
    elif fault == "program-past-its-length":
        data["rows"][0][1] = {"len": 0, "bits_hex": "1"}  # once read as the empty program
    elif fault == "bool-program-length":
        data["rows"][0][1]["len"] = True
    elif fault == "float-program-length":
        data["rows"][0][1]["len"] = 1.5
    elif fault == "lost-row":
        data["rows"].pop()
    elif fault == "duplicate-output":
        # the counts still match, and the rows of the last output now read
        # the first one's state
        data["outputs"][-1] = data["outputs"][0]
    else:
        raise ValueError(fault)


@pytest.fixture
def work(monkeypatch):
    """Counts the executor's gate applications, and run() calls through every
    module that binds it."""
    gates = Counted(executor.apply_gate)
    monkeypatch.setattr(executor, "apply_gate", gates)
    runs = Counted(executor.run)
    for module in (executor, census, cli):
        monkeypatch.setattr(module, "run", runs)
    return SimpleNamespace(gates=gates, runs=runs)


class TestRun:
    def test_empty_program_is_the_identity_computation(self, work):
        result = run(Program("1"), 2)
        assert result.output == zero_state(2)
        assert work.gates.calls == 0

    def test_rot_program(self, work):
        result = run(encode([ROT(0)], 1), 1)
        assert [(a.re, a.im) for a in result.output.amps] == [
            (Fraction(3, 5), 0),
            (Fraction(4, 5), 0),
        ]
        assert work.gates.calls == 1

    def test_callc_inlines_the_conditional(self, work):
        result = run(encode([CALLC()], 1), 1, conditional=conditional_of([X(0)], 1))
        assert result.output == basis_state(1, 1)
        assert work.gates.calls == 1

    def test_callc_without_conditional_is_nonhalting(self):
        assert run(encode([CALLC()], 1), 1).output is None

    def test_undecodable_program_is_nonhalting(self):
        assert run(Program("0101010"), 2).output is None

    def test_conditional_with_callc_is_a_usage_error(self):
        bad = decode(encode([CALLC()], 1).bits, 1)
        with pytest.raises(ValueError):
            run(Program("1"), 1, conditional=bad)

    def test_conditional_dimension_must_match(self):
        with pytest.raises(ValueError):
            run(Program("1"), 2, conditional=conditional_of([X(0)], 1))

    def test_steps_count_inlined_gates(self, work):
        cond = conditional_of([X(0), ROT(0)], 1)
        run(encode([CALLC(), CALLC()], 1), 1, conditional=cond)
        assert work.gates.calls == 4


class TestBuildTable:
    """Each row is its parent row's output plus one step; every row must equal
    running its program alone."""

    @pytest.mark.parametrize("n, max_len", [(1, 18), (2, 16), (3, 20), (4, 18)])
    def test_rows_equal_running_each_program(self, n, max_len, work):
        table = _build_table(n, max_len)
        assert work.runs.calls == 0  # the build runs no program
        assert list(table.rows) == run_rows(n, max_len)

    @pytest.mark.parametrize("n, max_len", [(1, 14), (2, 12)])
    def test_rows_equal_running_each_program_with_every_short_conditional(
        self, n, max_len, tmp_path
    ):
        for conditional in short_conditionals(n):
            expected = run_rows(n, max_len, conditional)
            assert list(_build_table(n, max_len, conditional).rows) == expected
            assert list(candidate_table(n, max_len, conditional, tmp_path).rows) == expected
        assert list(tmp_path.iterdir()) == []  # a conditional table is never cached

    @pytest.mark.parametrize(
        "n, max_len, depth", [(1, 14, 2), (2, 12, 2), (3, 14, 2), (4, 14, 1)]
    )
    def test_equal_outputs_are_one_object_and_firsts_match_the_reference(
        self, n, max_len, depth, tmp_path
    ):
        # cold build, warm read, and a table for every short conditional
        # (two gates would be 601 conditionals at n=4, so one there)
        cold = cached_outputs(n, max_len, tmp_path)
        warm = cached_outputs(n, max_len, tmp_path)
        tables = [cold, warm] + [
            candidate_table(n, max_len, conditional, tmp_path)
            for conditional in short_conditionals(n, depth)
        ]
        assert any(len(t.firsts) < len(t.rows) for t in tables)
        for table in tables:
            one = {}
            assert all(one.setdefault(out, out) is out for _i, _p, out in table.rows)
            assert table.firsts == reference_firsts(table.rows)

    def test_gate_applications_are_one_step_per_distinct_parent_output_and_op(self, work):
        conditional = conditional_of([X(0), ROT(1)], 2)
        expected = build_steps(2, 14), build_steps(2, 14, conditional)
        before = work.gates.calls
        table = _build_table(2, 14)
        assert work.gates.calls - before == expected[0] < len(table.rows) - 1
        before = work.gates.calls
        _build_table(2, 14, conditional)
        assert work.gates.calls - before == expected[1]
        assert work.runs.calls == 0

    def test_a_cold_build_decodes_nothing(self, monkeypatch):
        # the gates come with each program from the enumeration
        decodes = Counted(proglang.decode)
        for module in (proglang, executor):
            monkeypatch.setattr(module, "decode", decodes)
        table = _build_table(3, 20)
        assert decodes.calls == 0 and len(table.rows) == 970

    def test_a_cold_build_creates_no_fraction(self, monkeypatch, work):
        # each step runs on the integer form of its states, and a state's
        # Fraction amplitudes are built only when read
        expected = run_rows(3, 20)
        fractions = Counted(Fraction.__new__)
        monkeypatch.setattr(Fraction, "__new__", fractions)
        before = work.gates.calls
        table = _build_table(3, 20)
        assert fractions.calls == 0
        assert work.gates.calls - before == 348
        assert list(table.rows) == expected and len(table.rows) == 970
        assert table.firsts == reference_firsts(expected) and len(table.firsts) == 136
        assert table.scanned == expected[-1][0] + 1 == 1538

    def test_a_missing_parent_row_is_an_internal_error(self, monkeypatch):
        # an enumeration that lost the empty program's child X(0): its own
        # children have no parent row, and the build must not run them instead
        lost = encode([X(0)], 1)
        programs = [(p, gates) for p, gates in enumerate_decoded(11, 1) if p != lost]
        assert (encode([X(0), X(0)], 1), (X(0), X(0))) in programs
        monkeypatch.setattr(executor, "enumerate_decoded", lambda max_len, n: iter(programs))
        with pytest.raises(AssertionError, match="parent"):
            _build_table(1, 11)


class TestCache:
    def test_warm_cache_runs_zero_simulations(self, tmp_path, work):
        steps = build_steps(2, 8)
        before = work.gates.calls
        first = cached_outputs(2, 8, tmp_path)
        assert work.gates.calls - before == steps
        before = work.gates.calls
        second = cached_outputs(2, 8, tmp_path)
        assert work.gates.calls == before and work.runs.calls == 0
        assert second == first

    def test_cache_agrees_with_fresh_runs(self, tmp_path):
        table = cached_outputs(2, 10, tmp_path)
        assert list(table.rows) == run_rows(2, 10)

    def test_version_mismatch_forces_recompute(self, tmp_path, work):
        cached_outputs(1, 7, tmp_path)
        path = cache_path(tmp_path, 1, 7)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("pf1", "pf0")
        path.write_text("\n".join(lines) + "\n")
        steps = build_steps(1, 7)
        before = work.gates.calls
        with pytest.warns(UserWarning):
            cached_outputs(1, 7, tmp_path)
        assert work.gates.calls - before == steps > 0
        assert work.runs.calls == 0

    def test_corrupt_record_forces_recompute(self, tmp_path):
        table = cached_outputs(1, 7, tmp_path)
        path = cache_path(tmp_path, 1, 7)
        header, body = path.read_text().splitlines()
        # point the last row at another stored output, a field the reader
        # uses; every other check passes, so only the body's hash catches it
        data = json.loads(body)
        data["rows"][-1][2] = (data["rows"][-1][2] + 1) % len(data["outputs"])
        path.write_text(header + "\n" + _canonical(data) + "\n")
        with pytest.warns(UserWarning):
            recomputed = cached_outputs(1, 7, tmp_path)
        assert recomputed == table

    def test_record_that_is_not_an_object_forces_recompute(self, tmp_path):
        table = cached_outputs(1, 7, tmp_path)
        path = cache_path(tmp_path, 1, 7)
        write_with_hash(path, 5)
        with pytest.warns(UserWarning):
            assert cached_outputs(1, 7, tmp_path) == table

    @pytest.mark.parametrize(
        "fault",
        [
            "non-unit-norm",
            "wrong-n",
            "id-past-end",
            "negative-id",
            "bool-id",
            "lost-row",
            "duplicate-output",
            "index-not-increasing",
            "negative-index",
            "float-index",
            "float-part",
            "float-n",
            "program-past-its-length",
            "bool-program-length",
            "float-program-length",
        ],
    )
    def test_bad_body_with_a_matching_hash_forces_recompute(self, tmp_path, fault):
        table = cached_outputs(1, 7, tmp_path)
        path = cache_path(tmp_path, 1, 7)
        data = json.loads(path.read_text().splitlines()[1])
        break_body(data, fault)
        write_with_hash(path, data)
        with pytest.warns(UserWarning, match="stale or corrupt"):
            assert cached_outputs(1, 7, tmp_path) == table
        assert cached_outputs(1, 7, tmp_path) == table  # rewritten valid: no warning

    def test_warm_read_parses_each_distinct_output_once(self, tmp_path, monkeypatch, work):
        cold = cached_outputs(3, 20, tmp_path)
        before = work.gates.calls
        parses = Counted(executor.state_from_json)
        monkeypatch.setattr(executor, "state_from_json", parses)
        enumerations = Counted(executor.enumerate_decoded)
        monkeypatch.setattr(executor, "enumerate_decoded", enumerations)
        warm = cached_outputs(3, 20, tmp_path)
        assert parses.calls == len(cold.firsts) < len(cold.rows)
        assert enumerations.calls == 0  # the indices are read, not enumerated
        assert (warm.scanned, warm.rows, warm.firsts) == (cold.scanned, cold.rows, cold.firsts)
        assert warm == cold
        assert work.gates.calls == before and work.runs.calls == 0
        shared = {}
        assert all(shared.setdefault(out, out) is out for _i, _p, out in warm.rows)

    def test_a_bug_in_the_reader_is_not_a_stale_file(self, tmp_path, monkeypatch):
        # only I/O and parse errors mean a bad file; anything else propagates
        # instead of turning into a warning and a silent recompute
        cached_outputs(1, 7, tmp_path)

        def broken(obj):
            raise RuntimeError("bug in the state loader")

        monkeypatch.setattr(executor, "state_from_json", broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="bug in the state loader"):
                cached_outputs(1, 7, tmp_path)

    def test_old_per_record_file_is_recomputed_once_and_rewritten(self, tmp_path, work):
        self.check_old_file_is_recomputed_once_and_rewritten(tmp_path, work, "per-record")

    def test_old_outputs_rows_file_is_recomputed_once_and_rewritten(self, tmp_path, work):
        self.check_old_file_is_recomputed_once_and_rewritten(tmp_path, work, "outputs+rows")

    @staticmethod
    def check_old_file_is_recomputed_once_and_rewritten(tmp_path, work, layout):
        table = cached_outputs(1, 7, tmp_path)
        path = cache_path(tmp_path, 1, 7)
        path.write_text(old_layout_file(table, layout))
        steps = build_steps(1, 7)
        before = work.gates.calls
        with pytest.warns(UserWarning, match="stale or corrupt"):
            assert cached_outputs(1, 7, tmp_path) == table
        assert work.gates.calls - before == steps > 0
        head, _body = path.read_text().splitlines()
        assert json.loads(head)["format"] == "outputs+indexed-rows"
        assert json.loads(head)["rows"] == len(table.rows)
        before = work.gates.calls
        assert cached_outputs(1, 7, tmp_path) == table  # no warning: the new layout reads
        assert work.gates.calls == before and work.runs.calls == 0

    @pytest.mark.parametrize(
        "n, max_len, digest",
        [
            (2, 12, "45c148c61b9731a781bcadbda8765e8fcd89f9cdf56d5b16da9af88edf5aa7ff"),
            (3, 20, "0dad26bac4b3bc6dc9703c11b26c2fb119f6c525621bdec636686c65e3e78512"),
        ],
    )
    def test_cache_file_bytes_are_pinned(self, tmp_path, n, max_len, digest):
        # the sha256 of the file as first written by the indexed-row layout:
        # a change in indices, output ids, their order or which rows share an
        # output changes the bytes
        cached_outputs(n, max_len, tmp_path)
        data = cache_path(tmp_path, n, max_len).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_distinct_keys_get_distinct_files(self, tmp_path):
        cached_outputs(1, 7, tmp_path)
        cached_outputs(2, 7, tmp_path)
        assert cache_path(tmp_path, 1, 7).exists()
        assert cache_path(tmp_path, 2, 7).exists()
        assert cache_path(tmp_path, 1, 7) != cache_path(tmp_path, 2, 7)

    def test_truncated_file_forces_recompute(self, tmp_path):
        # a valid cache lists every halting program, so a lost line must not
        # pass as a program that does not halt
        table = cached_outputs(1, 7, tmp_path)
        path = cache_path(tmp_path, 1, 7)
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        with pytest.warns(UserWarning):
            assert cached_outputs(1, 7, tmp_path) == table

    def test_cold_commands_run_each_program_once(self, tmp_path, capsys, monkeypatch, work):
        # each command builds its table once, one step per distinct (parent
        # output, last op) pair, and runs no program on its own
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        steps = build_steps(2, 12)
        for argv in (
            ["census", "--n", "2", "--c", "1", "--max-len", "12"],
            ["census", "--n", "2", "--c", "1", "--max-len", "12", "--rotated"],
            ["consistency", "--n", "2", "--max-len", "12"],
            ["estimate", "--classical", "01", "--n", "2", "--max-len", "12"],
        ):
            before = work.gates.calls
            assert main(argv + ["--out-dir", str(tmp_path)]) == 0
            assert work.gates.calls - before == steps, argv
        assert work.runs.calls == 0
        capsys.readouterr()

    def test_warm_cache_commands_run_zero_simulations(self, tmp_path, capsys, work):
        cache = str(tmp_path / "cache")
        cached_outputs(2, 12, cache)
        before = work.gates.calls
        for argv in (
            ["census", "--n", "2", "--c", "1", "--max-len", "12"],
            ["census", "--n", "2", "--c", "1", "--max-len", "12", "--rotated"],
            ["consistency", "--n", "2", "--max-len", "12"],
            ["estimate", "--classical", "01", "--n", "2", "--max-len", "12"],
            ["estimate", "--classical", "01", "--n", "2", "--max-len", "12",
             "--sampled", "--alpha", "0.5", "--epsilon", "0.45"],
        ):
            assert main(argv + ["--out-dir", str(tmp_path), "--cache-dir", cache]) == 0
        assert work.gates.calls == before and work.runs.calls == 0
        capsys.readouterr()

    def test_subadd_runs_each_program_and_generator_once(self, tmp_path, capsys, monkeypatch, work):
        # on one qubit each: the joint table steps each distinct (parent
        # output, last op) pair of the 2-qubit rows, the y table that of the
        # 1-qubit rows, and the conditional table, never cached, that of the
        # 1-qubit rows with the CALLC rows; a generator that fits in max_len
        # is read from the y table, and only a longer one is run
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        max_len = 14
        rot3 = encode([ROT(0)] * 3, 1)
        assert rot3.length > max_len

        def work_done(px, py, *extra):
            gates, runs = work.gates.calls, work.runs.calls
            argv = ["subadd", "--px", px, "--py", py, "--max-len", str(max_len)]
            assert main(argv + ["--out-dir", str(tmp_path), *extra]) == 0
            return work.gates.calls - gates, work.runs.calls - runs

        unconditional = build_steps(2, max_len) + build_steps(1, max_len)
        conditional = {
            py: build_steps(1, max_len, conditional_of(gates, 1))
            for py, gates in (("1:1", []), ("7:20", [X(0)]))
        }
        cache = str(tmp_path / "cache")
        for py in conditional:
            assert work_done("7:24", py) == (unconditional + conditional[py], 0)
            work_done("7:24", py, "--cache-dir", cache)  # builds the cache
            assert work_done("7:24", py, "--cache-dir", cache) == (conditional[py], 0)
        # the only run: p_x's three gates
        px = f"{rot3.length}:{rot3.value:x}"
        assert work_done(px, "1:1", "--cache-dir", cache) == (3 + conditional["1:1"], 1)
        capsys.readouterr()

    def test_writer_interleaved_inside_another_keeps_its_temp_file(
        self, tmp_path, monkeypatch
    ):
        # a second writer of the same cache runs entirely between the first
        # writer's temp-file write and its rename; a shared temp name would
        # make the first rename fail
        real_replace = os.replace
        inner = []

        def replace(src, dst):
            if not inner:
                inner.append(None)  # the inner writer's own rename goes straight through
                inner[0] = cached_outputs(1, 9, tmp_path)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        outer = cached_outputs(1, 9, tmp_path)
        monkeypatch.undo()
        assert inner == [outer]
        gates = Counted(executor.apply_gate)
        monkeypatch.setattr(executor, "apply_gate", gates)
        assert cached_outputs(1, 9, tmp_path) == outer
        assert gates.calls == 0

    def test_concurrent_writers_both_succeed(self, tmp_path, work):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        script = "import sys; from qkclab import cached_outputs; cached_outputs(3, 20, sys.argv[1])"
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path)], env=env, stderr=subprocess.PIPE
            )
            for _ in range(2)
        ]
        for writer in writers:
            _, err = writer.communicate(timeout=120)
            assert writer.returncode == 0, err.decode()
        assert list(tmp_path.iterdir()) == [cache_path(tmp_path, 3, 20)]  # no temp file left
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a stale or corrupt file would warn
            table = cached_outputs(3, 20, tmp_path)
        assert work.gates.calls == 0 and work.runs.calls == 0
        assert table == candidate_table(3, 20)
