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
    DECODE_FAILED,
    HALTED,
    ROT,
    X,
    Program,
    basis_state,
    cached_outputs,
    candidate_table,
    decode,
    encode,
    enumerate_programs,
    run,
    simulation_count,
    zero_state,
)
from qkclab import census, cli, executor
from qkclab.cli import CACHE_ENV_VAR, main
from qkclab.executor import _build_table, cache_path

from oracles import Counted, reference_op_fields


def conditional_of(gates, n):
    return decode(encode(gates, n).bits, n, allow_callc=False)


def run_rows(n, max_len, conditional=None):
    """(index, program, output) of every halting program, each run on its own."""
    return [
        (idx, prog, result.output)
        for idx, prog in enumerate(enumerate_programs(max_len, n))
        if (result := run(prog, n, conditional)).status == HALTED
    ]


def build_steps(n, max_len, conditional=None, from_known=False):
    """Gate applications of a table build, derived from the enumeration: one
    per row except the empty program's, and len(conditional.gates) for a row
    that ends in CALLC.  Built from a known table with no conditional, only
    the CALLC rows take steps."""
    steps = 0
    for prog in enumerate_programs(max_len, n):
        gates = decode(prog.bits, n).gates
        calls = CALLC() in gates
        if not gates or (calls and conditional is None) or (from_known and not calls):
            continue
        steps += len(conditional.gates) if gates[-1] == CALLC() else 1
    return steps


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
    def test_empty_program_is_the_identity_computation(self):
        result = run(Program("1"), 2)
        assert result.status == HALTED
        assert result.output == zero_state(2)
        assert result.steps == 0

    def test_rot_program(self):
        result = run(encode([ROT(0)], 1), 1)
        assert [(a.re, a.im) for a in result.output.amps] == [
            (Fraction(3, 5), 0),
            (Fraction(4, 5), 0),
        ]
        assert result.steps == 1

    def test_callc_inlines_the_conditional(self):
        result = run(encode([CALLC()], 1), 1, conditional=conditional_of([X(0)], 1))
        assert result.output == basis_state(1, 1)
        assert result.steps == 1

    def test_callc_without_conditional_is_nonhalting(self):
        result = run(encode([CALLC()], 1), 1)
        assert result.status == DECODE_FAILED and result.output is None

    def test_undecodable_program_is_nonhalting(self):
        assert run(Program("0101010"), 2).status == DECODE_FAILED

    def test_conditional_with_callc_is_a_usage_error(self):
        bad = decode(encode([CALLC()], 1).bits, 1)
        with pytest.raises(ValueError):
            run(Program("1"), 1, conditional=bad)

    def test_conditional_dimension_must_match(self):
        with pytest.raises(ValueError):
            run(Program("1"), 2, conditional=conditional_of([X(0)], 1))

    def test_steps_count_inlined_gates(self):
        cond = conditional_of([X(0), ROT(0)], 1)
        result = run(encode([CALLC(), CALLC()], 1), 1, conditional=cond)
        assert result.steps == 4


class TestBuildTable:
    """Each row is its parent row's output plus one step; every row must equal
    running its program alone."""

    @pytest.mark.parametrize("n, max_len", [(1, 18), (2, 16), (3, 20), (4, 18)])
    def test_rows_equal_running_each_program(self, n, max_len):
        sims = simulation_count()
        table = _build_table(n, max_len)
        assert simulation_count() == sims  # the build runs no program
        assert list(table.rows) == run_rows(n, max_len)

    @pytest.mark.parametrize("n, max_len", [(1, 14), (2, 12)])
    def test_rows_equal_running_each_program_with_every_short_conditional(
        self, n, max_len, tmp_path
    ):
        alphabet = [op for _bits, op in reference_op_fields(n) if op != CALLC()]
        conditionals = [
            conditional_of(gates, n)
            for k in range(3)
            for gates in product(alphabet, repeat=k)
        ]
        cached = cached_outputs(n, max_len, tmp_path)
        warm = cached_outputs(n, max_len, tmp_path)
        for conditional in conditionals:
            expected = run_rows(n, max_len, conditional)
            assert list(_build_table(n, max_len, conditional).rows) == expected
            assert list(cached.with_conditional(conditional).rows) == expected
            assert list(warm.with_conditional(conditional).rows) == expected

    def test_gate_applications_are_one_step_per_row(self, work):
        conditional = conditional_of([X(0), ROT(1)], 2)
        table = _build_table(2, 14)
        assert work.gates.calls == len(table.rows) - 1 == build_steps(2, 14)
        before = work.gates.calls
        table.with_conditional(conditional)
        assert work.gates.calls - before == build_steps(2, 14, conditional, from_known=True)
        before = work.gates.calls
        _build_table(2, 14, conditional)
        assert work.gates.calls - before == build_steps(2, 14, conditional)
        assert work.runs.calls == 0

    def test_a_missing_parent_row_is_an_internal_error(self, monkeypatch):
        # an enumeration that lost the empty program's child X(0): its own
        # children have no parent row, and the build must not run them instead
        lost = encode([X(0)], 1)
        programs = [p for p in enumerate_programs(11, 1) if p != lost]
        assert encode([X(0), X(0)], 1) in programs
        monkeypatch.setattr(executor, "enumerate_programs", lambda max_len, n: iter(programs))
        with pytest.raises(AssertionError, match="parent"):
            _build_table(1, 11)


class TestCache:
    def test_warm_cache_runs_zero_simulations(self, tmp_path, work):
        first = cached_outputs(2, 8, tmp_path)
        assert work.gates.calls == build_steps(2, 8)
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
        before = work.gates.calls
        with pytest.warns(UserWarning):
            cached_outputs(1, 7, tmp_path)
        assert work.gates.calls - before == build_steps(1, 7) > 0
        assert work.runs.calls == 0

    def test_corrupt_record_forces_recompute(self, tmp_path):
        table = cached_outputs(1, 7, tmp_path)
        path = cache_path(tmp_path, 1, 7)
        # flip one output amplitude's numerator, a field the reader uses
        text = path.read_text().replace('"output":{"amps":[["1",', '"output":{"amps":[["2",', 1)
        assert text != path.read_text()
        path.write_text(text)
        with pytest.warns(UserWarning):
            recomputed = cached_outputs(1, 7, tmp_path)
        assert recomputed == table

    def test_record_that_is_not_an_object_forces_recompute(self, tmp_path):
        table = cached_outputs(1, 7, tmp_path)
        path = cache_path(tmp_path, 1, 7)
        header, _first, *records = path.read_text().splitlines()
        path.write_text("\n".join([header, "5", *records]) + "\n")
        with pytest.warns(UserWarning):
            assert cached_outputs(1, 7, tmp_path) == table

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

    def test_record_written_with_a_steps_field_still_reads(self, tmp_path, work):
        # older cache files carry a "steps" field per record; the reader
        # ignores it and the record's sha covers it
        table = cached_outputs(1, 7, tmp_path)
        path = cache_path(tmp_path, 1, 7)
        header, *records = path.read_text().splitlines()
        lines = [header]
        for line in records:
            record = json.loads(line)
            del record["sha"]
            record["steps"] = 0
            canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
            record["sha"] = hashlib.sha256(canonical.encode("ascii")).hexdigest()
            lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        path.write_text("\n".join(lines) + "\n")
        before = work.gates.calls
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cached_outputs(1, 7, tmp_path) == table
        assert work.gates.calls == before and work.runs.calls == 0

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
        # each command builds its table once, one step per row after the
        # empty program, and runs no program on its own
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
        # on one qubit each: the joint table steps every 2-qubit row, the y
        # table every 1-qubit row, and the conditional table only the CALLC
        # rows; a generator that fits in max_len is read from the y table,
        # and only a longer one is run
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
            py: build_steps(1, max_len, conditional_of(gates, 1), from_known=True)
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
