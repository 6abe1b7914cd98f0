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
    candidate_rows,
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
from qkclab.cli import CACHE_ENV_VAR, main, parse_program_arg
from qkclab.executor import _build_table, _canonical, cache_path

from oracles import Counted, reference_candidates, reference_firsts, reference_op_fields


def short_conditionals(n, depth=2):
    """Every CALLC-free conditional of up to `depth` gates on n qubits."""
    alphabet = [op for _bits, op in reference_op_fields(n) if op != CALLC()]
    return [
        encode(gates, n)
        for k in range(depth + 1)
        for gates in product(alphabet, repeat=k)
    ]


def run_rows(n, max_len, conditional=None):
    """(index, program, output) of every halting program, each run on its own."""
    return [
        (idx, prog, output)
        for idx, prog in enumerate(enumerate_programs(max_len, n))
        if (output := run(prog, n, conditional)) is not None
    ]


def build_steps(n, max_len, conditional=None):
    """Gate applications of a table build, derived from running each program
    alone: one step per distinct (parent output, last op) pair, the parent
    being the program minus its last op, and the conditional's gate count
    for a pair whose op is CALLC.  Call it before counting: it runs every
    program through the counted gate."""
    outputs = {
        decode(prog.bits, n): out for _idx, prog, out in run_rows(n, max_len, conditional)
    }
    pairs = {(outputs[gates[:-1]], gates[-1]) for gates in outputs if gates}
    called = 0 if conditional is None else len(decode(conditional.bits, n))
    return sum(called if op == CALLC() else 1 for _parent, op in pairs)


def write_with_hash(path, data):
    """Replace a cache file's body with `data`, and its header's sha256 with
    the new body's, so that only the reader's other checks can reject it."""
    body = _canonical(data)
    header = json.loads(path.read_text().splitlines()[0])
    header["sha256"] = hashlib.sha256(body.encode("ascii")).hexdigest()
    path.write_text(_canonical(header) + "\n" + body + "\n")


def old_layout_file(table, layout):
    """The text of `table` in an older cache layout, valid in that layout:
    each older layout stored every halting program's row."""
    rows = candidate_rows(table.n, table.max_len)
    if layout == "per-record":
        # a header line, then one record per halting program with its full
        # output and a sha over the record
        header = {"version": ENCODING_VERSION, "n": table.n, "max_len": table.max_len,
                  "records": len(rows)}
        lines = [_canonical(header)]
        for _idx, prog, out in rows:
            record = {"program": program_to_json(prog), "output": state_to_json(out)}
            record["sha"] = hashlib.sha256(_canonical(record).encode("ascii")).hexdigest()
            lines.append(_canonical(record))
    elif layout in ("outputs+rows", "outputs+indexed-rows"):
        # each distinct output once, and rows of [program, output id], with
        # no index in "outputs+rows", which a read took from the enumeration,
        # or [index, program, output id] in "outputs+indexed-rows"
        outputs = [out for _i, _p, out in table.firsts]
        ids = {out: k for k, out in enumerate(outputs)}
        stored = [[idx, program_to_json(prog), ids[out]] for idx, prog, out in rows]
        if layout == "outputs+rows":
            stored = [row[1:] for row in stored]
        body = _canonical({"outputs": [state_to_json(out) for out in outputs], "rows": stored})
        header = {
            "format": layout,
            "version": ENCODING_VERSION,
            "n": table.n,
            "max_len": table.max_len,
            "rows": len(stored),
            "outputs": len(outputs),
            "sha256": hashlib.sha256(body.encode("ascii")).hexdigest(),
        }
        lines = [_canonical(header), body]
    else:
        raise ValueError(layout)
    return "\n".join(lines) + "\n"


def break_body(data, fault):
    """One fault in a parsed cache body that its hash cannot reveal."""
    firsts = data["firsts"]
    if fault == "non-unit-norm":
        firsts[0][2]["amps"][0][0] = "2"
    elif fault == "wrong-n":
        firsts[0][2] = state_to_json(zero_state(2))
    elif fault == "scanned-at-last-index":
        data["scanned"] = firsts[-1][0]
    elif fault == "negative-scanned":
        data["scanned"] = -1
    elif fault == "float-scanned":
        data["scanned"] += 0.5  # still past the last index
    elif fault == "index-not-increasing":
        firsts[-1][0] = firsts[-2][0]
    elif fault == "negative-index":
        firsts[0][0] = -1
    elif fault == "float-index":
        firsts[-1][0] += 0.5
    elif fault == "float-part":
        firsts[0][2]["amps"][0][0] = 1.0  # int() would read it as 1
    elif fault == "float-n":
        firsts[0][2]["n"] = 1.0
    elif fault == "huge-n":
        # fails without allocating; an n near 10**9 would build a huge 1 << n
        firsts[0][2]["n"] = str(10**20)
    elif fault == "program-past-its-length":
        firsts[0][1] = {"len": 0, "bits_hex": "1"}  # once read as the empty program
    elif fault == "bool-program-length":
        firsts[0][1]["len"] = True
    elif fault == "float-program-length":
        firsts[0][1]["len"] = 1.5
    elif fault == "rows-out-of-order":
        firsts[0][1], firsts[-1][1] = firsts[-1][1], firsts[0][1]
    elif fault == "program-past-max-len":
        # the body is read at max_len=7; an 8-bit last program is still in order
        firsts[-1][1] = {"len": 8, "bits_hex": "0"}
    elif fault == "lost-row":
        firsts.pop()
    elif fault == "duplicate-output":
        # every index, program and count still checks, and the last first
        # now stores the first one's state
        firsts[-1][2] = firsts[0][2]
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
        assert run(Program("1"), 2) == zero_state(2)
        assert work.gates.calls == 0

    def test_rot_program(self, work):
        output = run(encode([ROT(0)], 1), 1)
        assert [(a.re, a.im) for a in output.amps] == [
            (Fraction(3, 5), 0),
            (Fraction(4, 5), 0),
        ]
        assert work.gates.calls == 1

    def test_callc_inlines_the_conditional(self, work):
        output = run(encode([CALLC()], 1), 1, conditional=encode([X(0)], 1))
        assert output == basis_state(1, 1)
        assert work.gates.calls == 1

    def test_callc_without_conditional_is_nonhalting(self):
        assert run(encode([CALLC()], 1), 1) is None

    def test_undecodable_program_is_nonhalting(self):
        assert run(Program("0101010"), 2) is None

    def test_conditional_with_callc_is_a_usage_error(self):
        with pytest.raises(ValueError):
            run(Program("1"), 1, conditional=encode([CALLC()], 1))

    def test_conditional_must_decode_at_the_run_width(self):
        # X(1) is an op at n=2 but not at n=1, so the conditional is refused
        # at the width that runs it
        with pytest.raises(ValueError, match="n=1"):
            run(Program("1"), 1, conditional=encode([X(1)], 2))

    def test_steps_count_inlined_gates(self, work):
        cond = encode([X(0), ROT(0)], 1)
        run(encode([CALLC(), CALLC()], 1), 1, conditional=cond)
        assert work.gates.calls == 4


class TestBuildTable:
    """Each row is its parent row's output plus one step; every row must equal
    running its program alone, and the table must hold the first row of each
    distinct output."""

    @pytest.mark.parametrize("n, max_len", [(1, 18), (2, 16), (3, 20), (4, 18)])
    def test_rows_equal_running_each_program(self, n, max_len, work):
        rows = candidate_rows(n, max_len)
        assert work.runs.calls == 0  # the build runs no program
        assert rows == run_rows(n, max_len)

    @pytest.mark.parametrize("n, max_len", [(1, 14), (2, 12)])
    def test_rows_equal_running_each_program_with_every_short_conditional(
        self, n, max_len, tmp_path
    ):
        for conditional in short_conditionals(n):
            expected = run_rows(n, max_len, conditional)
            assert candidate_rows(n, max_len, conditional) == expected
            table = candidate_table(n, max_len, conditional, tmp_path)
            assert table.firsts == reference_firsts(expected)
            assert table.scanned == expected[-1][0] + 1
        assert list(tmp_path.iterdir()) == []  # a conditional table is never cached

    @pytest.mark.parametrize(
        "n, max_len, depth", [(1, 14, 2), (2, 12, 2), (3, 14, 2), (4, 14, 1)]
    )
    def test_equal_outputs_are_one_object_and_firsts_match_the_reference(
        self, n, max_len, depth, tmp_path
    ):
        # cold build, warm read, and a table for every short conditional
        # (two gates would be 601 conditionals at n=4, so one there)
        cases = [(None, cached_outputs(n, max_len, tmp_path)),
                 (None, cached_outputs(n, max_len, tmp_path))]
        cases += [
            (conditional, candidate_table(n, max_len, conditional, tmp_path))
            for conditional in short_conditionals(n, depth)
        ]
        repeats = False
        for conditional, table in cases:
            rows = candidate_rows(n, max_len, conditional)
            one = {}
            assert all(one.setdefault(out, out) is out for _i, _p, out in rows)
            assert table.firsts == reference_firsts(rows)
            assert table.scanned == rows[-1][0] + 1
            repeats |= len(table.firsts) < len(rows)
        assert repeats

    def test_gate_applications_are_one_step_per_distinct_parent_output_and_op(self, work):
        conditional = encode([X(0), ROT(1)], 2)
        expected = build_steps(2, 14), build_steps(2, 14, conditional)
        before = work.gates.calls
        rows = candidate_rows(2, 14)
        assert work.gates.calls - before == expected[0] < len(rows) - 1
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
        rows = candidate_rows(3, 20)
        assert decodes.calls == 0 and (len(table.firsts), len(rows)) == (136, 970)

    def test_a_cold_build_creates_no_fraction(self, monkeypatch, work):
        # each step runs on the integer form of its states, and a state's
        # Fraction amplitudes are built only when read
        expected = run_rows(3, 20)
        fractions = Counted(Fraction.__new__)
        monkeypatch.setattr(Fraction, "__new__", fractions)
        before = work.gates.calls
        table = _build_table(3, 20)
        assert work.gates.calls - before == 348
        rows = candidate_rows(3, 20)
        assert fractions.calls == 0
        assert rows == expected and len(rows) == 970
        assert table.firsts == reference_firsts(expected) and len(table.firsts) == 136
        assert table.scanned == expected[-1][0] + 1 == 1538

    def test_a_missing_parent_row_is_an_internal_error(self, monkeypatch):
        # an enumeration that lost the empty program's child X(0): its own
        # children have no parent row, and the build must not run them instead
        lost = encode([X(0)], 1)
        stream = [row for row in enumerate_decoded(11, 1, callc=False) if row[1] != lost]
        assert len(stream) == len(candidate_rows(1, 11)) - 1
        assert (12, encode([X(0), X(0)], 1), (X(0), X(0))) in stream
        monkeypatch.setattr(
            executor, "enumerate_decoded", lambda max_len, n, callc: iter(stream)
        )
        with pytest.raises(AssertionError, match="parent"):
            _build_table(1, 11)

    def test_only_a_build_with_a_conditional_reads_callc_programs(self, monkeypatch):
        # with no conditional a CALLC program cannot halt, so none is built,
        # and the index of every row is still its full enumeration index
        read = []

        def recorded(max_len, n, callc):
            for row in enumerate_decoded(max_len, n, callc):
                read.append(row)
                yield row

        monkeypatch.setattr(executor, "enumerate_decoded", recorded)
        rows = candidate_rows(3, 20)
        assert len(read) == len(rows) == 970
        assert not any(CALLC in map(type, gates) for _idx, _prog, gates in read)
        assert [row[:2] for row in read] == [row[:2] for row in run_rows(3, 20)]
        read.clear()
        candidate_rows(3, 20, encode([X(0)], 3))
        assert len(read) == 1653 and any(CALLC in map(type, gates) for *_row, gates in read)


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
        rows = run_rows(2, 10)
        assert (table.firsts, table.scanned) == (reference_firsts(rows), rows[-1][0] + 1)

    @pytest.mark.parametrize("n, max_len", [(1, 18), (2, 16), (3, 20), (4, 24)])
    def test_cached_firsts_and_scanned_match_the_build_and_the_reference(
        self, tmp_path, n, max_len
    ):
        rows = list(reference_candidates(n, max_len))
        expected = (reference_firsts(rows), rows[-1][0] + 1)
        built = _build_table(n, max_len)
        cold = cached_outputs(n, max_len, tmp_path)
        warm = cached_outputs(n, max_len, tmp_path)
        for table in (built, cold, warm):
            assert (table.firsts, table.scanned) == expected

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
        # raise scanned, a field the reader uses; every other check passes,
        # so only the body's hash catches it
        data = json.loads(body)
        data["scanned"] += 1
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
            "scanned-at-last-index",
            "negative-scanned",
            "float-scanned",
            "lost-row",
            "duplicate-output",
            "index-not-increasing",
            "negative-index",
            "float-index",
            "float-part",
            "float-n",
            "huge-n",
            "program-past-its-length",
            "bool-program-length",
            "float-program-length",
            "rows-out-of-order",
            "program-past-max-len",
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
        enumerations = Counted(executor.enumerate_decoded)
        monkeypatch.setattr(executor, "enumerate_decoded", enumerations)
        cold = cached_outputs(3, 20, tmp_path)
        assert enumerations.calls == 1  # the name a build enumerates through
        before = work.gates.calls
        parses = Counted(executor.state_from_json)
        monkeypatch.setattr(executor, "state_from_json", parses)
        programs = Counted(executor.program_from_json)
        monkeypatch.setattr(executor, "program_from_json", programs)
        warm = cached_outputs(3, 20, tmp_path)
        # one program and one state per first; the 834 later rows are not stored
        assert parses.calls == programs.calls == len(cold.firsts) == 136
        assert enumerations.calls == 1  # the indices are read, not enumerated
        assert (warm.scanned, warm.firsts) == (cold.scanned, cold.firsts)
        assert warm == cold
        assert work.gates.calls == before and work.runs.calls == 0

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

    def test_old_outputs_indexed_rows_file_is_recomputed_once_and_rewritten(
        self, tmp_path, work
    ):
        self.check_old_file_is_recomputed_once_and_rewritten(
            tmp_path, work, "outputs+indexed-rows"
        )

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
        assert json.loads(head)["format"] == "indexed-firsts"
        assert json.loads(head)["firsts"] == len(table.firsts)
        before = work.gates.calls
        assert cached_outputs(1, 7, tmp_path) == table  # no warning: the new layout reads
        assert work.gates.calls == before and work.runs.calls == 0

    @pytest.mark.parametrize(
        "n, max_len, digest",
        [
            (2, 12, "3e540509e0053a7fef7e51c3bf2cfc67f6319b5754bc2f77eea9c16b869a60a7"),
            (3, 20, "7803d234371e61ca9dea4b35de849b1edc00325bc5a64c62247fd86985bafd50"),
        ],
    )
    def test_cache_file_bytes_are_pinned(self, tmp_path, n, max_len, digest):
        # the sha256 of the file as first written by the indexed-firsts
        # layout: a change in which rows are firsts, their indices, programs,
        # states or order, or in scanned, changes the bytes
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
        ):
            assert main(argv + ["--out-dir", str(tmp_path), "--cache-dir", cache]) == 0
        assert work.gates.calls == before and work.runs.calls == 0
        capsys.readouterr()

    def test_sampled_estimate_builds_its_rows_and_touches_no_cache(
        self, tmp_path, capsys, monkeypatch, work
    ):
        # the sampled mode reads the build's stream, cold or warm, and
        # neither reads nor writes the cache file.  The stream stops where
        # the scan stops: 7 steps, of the full (2, 12) build's 40
        reads = Counted(executor._read_cache)
        monkeypatch.setattr(executor, "_read_cache", reads)
        steps = 7
        assert build_steps(2, 12) == 40
        argv = ["estimate", "--classical", "01", "--n", "2", "--max-len", "12",
                "--sampled", "--alpha", "0.5", "--epsilon", "0.45",
                "--out-dir", str(tmp_path)]
        empty, warm = tmp_path / "empty", tmp_path / "warm"
        empty.mkdir()
        cached_outputs(2, 12, warm)
        path = cache_path(warm, 2, 12)
        stored = path.read_bytes(), path.stat().st_mtime_ns
        for cache in (empty, warm):
            before = work.gates.calls
            assert main(argv + ["--cache-dir", str(cache)]) == 0
            assert work.gates.calls - before == steps
        assert list(empty.iterdir()) == []
        assert (path.read_bytes(), path.stat().st_mtime_ns) == stored
        assert reads.calls == 0 and work.runs.calls == 0
        capsys.readouterr()

    def test_subadd_runs_each_program_and_generator_once(self, tmp_path, capsys, monkeypatch, work):
        # on one qubit each: the joint table steps each distinct (parent
        # output, last op) pair of the 2-qubit rows, the y table that of the
        # 1-qubit rows, and the conditional table, never cached, that of the
        # 1-qubit rows with the CALLC rows; each generator is run once, with
        # one step per gate, whether or not it fits in max_len
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        max_len = 14
        rot3 = encode([ROT(0)] * 3, 1)
        assert rot3.length > max_len

        def gates_of(*programs):
            return sum(len(decode(parse_program_arg(p).bits, 1)) for p in programs)

        def work_done(px, py, *extra):
            gates, runs = work.gates.calls, work.runs.calls
            argv = ["subadd", "--px", px, "--py", py, "--n", "1", "--max-len", str(max_len)]
            assert main(argv + ["--out-dir", str(tmp_path), *extra]) == 0
            return work.gates.calls - gates, work.runs.calls - runs

        unconditional = build_steps(2, max_len) + build_steps(1, max_len)
        conditional = {py: build_steps(1, max_len, parse_program_arg(py)) for py in ("1:1", "7:20")}
        cache = str(tmp_path / "cache")
        for py in conditional:
            generators = gates_of("7:24", py)
            assert work_done("7:24", py) == (unconditional + conditional[py] + generators, 2)
            work_done("7:24", py, "--cache-dir", cache)  # builds the cache
            assert work_done("7:24", py, "--cache-dir", cache) == (
                conditional[py] + generators, 2
            )
        px = f"{rot3.length}:{rot3.value:x}"
        assert gates_of(px, "1:1") == 3
        assert work_done(px, "1:1", "--cache-dir", cache) == (3 + conditional["1:1"], 2)
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
