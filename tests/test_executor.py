import hashlib
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

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
from qkclab.cli import CACHE_ENV_VAR, main
from qkclab.executor import cache_path


def conditional_of(gates, n):
    return decode(encode(gates, n).bits, n, allow_callc=False)


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


class TestCache:
    def test_warm_cache_runs_zero_simulations(self, tmp_path):
        first = cached_outputs(2, 8, tmp_path)
        before = simulation_count()
        second = cached_outputs(2, 8, tmp_path)
        assert simulation_count() == before
        assert second == first

    def test_cache_agrees_with_fresh_runs(self, tmp_path):
        table = cached_outputs(2, 10, tmp_path)
        fresh = [
            (idx, prog, result.output)
            for idx, prog in enumerate(enumerate_programs(10, 2))
            if (result := run(prog, 2)).status == HALTED
        ]
        assert list(table.rows) == fresh

    def test_version_mismatch_forces_recompute(self, tmp_path):
        cached_outputs(1, 7, tmp_path)
        path = cache_path(tmp_path, 1, 7)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("pf1", "pf0")
        path.write_text("\n".join(lines) + "\n")
        before = simulation_count()
        with pytest.warns(UserWarning):
            cached_outputs(1, 7, tmp_path)
        assert simulation_count() > before

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

    def test_record_written_with_a_steps_field_still_reads(self, tmp_path):
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
        before = simulation_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cached_outputs(1, 7, tmp_path) == table
        assert simulation_count() == before

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

    def test_cold_commands_run_each_program_once(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        programs = len(list(enumerate_programs(12, 2)))
        for argv in (
            ["census", "--n", "2", "--c", "1", "--max-len", "12"],
            ["census", "--n", "2", "--c", "1", "--max-len", "12", "--rotated"],
            ["consistency", "--n", "2", "--max-len", "12"],
            ["estimate", "--classical", "01", "--n", "2", "--max-len", "12"],
        ):
            before = simulation_count()
            assert main(argv + ["--out-dir", str(tmp_path)]) == 0
            assert simulation_count() - before == programs, argv
        capsys.readouterr()

    def test_warm_cache_commands_run_zero_simulations(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        cached_outputs(2, 12, cache)
        before = simulation_count()
        for argv in (
            ["census", "--n", "2", "--c", "1", "--max-len", "12"],
            ["census", "--n", "2", "--c", "1", "--max-len", "12", "--rotated"],
            ["consistency", "--n", "2", "--max-len", "12"],
            ["estimate", "--classical", "01", "--n", "2", "--max-len", "12"],
            ["estimate", "--classical", "01", "--n", "2", "--max-len", "12",
             "--sampled", "--alpha", "0.5", "--epsilon", "0.45"],
        ):
            assert main(argv + ["--out-dir", str(tmp_path), "--cache-dir", cache]) == 0
        assert simulation_count() == before
        capsys.readouterr()

    def test_subadd_runs_each_program_and_generator_once(self, tmp_path, capsys, monkeypatch):
        # p_x = ROT(0), p_y = the empty program, both on one qubit: the joint
        # table runs every 2-qubit program, the y table every 1-qubit one, the
        # conditional table only the 1-qubit CALLC programs, and each
        # generator runs once
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        max_len = 14
        one = list(enumerate_programs(max_len, 1))
        callc = sum(1 for p in one if decode(p.bits, 1).has_call)
        joint = len(list(enumerate_programs(max_len, 2)))
        cache = str(tmp_path / "cache")

        def simulations(*extra):
            before = simulation_count()
            argv = ["subadd", "--px", "7:24", "--py", "1:1", "--max-len", str(max_len)]
            assert main(argv + ["--out-dir", str(tmp_path), *extra]) == 0
            return simulation_count() - before

        assert simulations() == joint + len(one) + callc + 2
        simulations("--cache-dir", cache)  # builds the cache
        assert simulations("--cache-dir", cache) == callc + 2
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
        before = simulation_count()
        assert cached_outputs(1, 9, tmp_path) == outer
        assert simulation_count() == before

    def test_concurrent_writers_both_succeed(self, tmp_path):
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
        before = simulation_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a stale or corrupt file would warn
            table = cached_outputs(3, 20, tmp_path)
        assert simulation_count() == before
        assert table == candidate_table(3, 20)
