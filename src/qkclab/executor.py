"""Runs decoded programs from |0...0>, and builds the candidate table every
estimator scans, one gate step per row, with its persistent cache.

Every decodable program here is straight-line and halts; decode failures play
the role of non-halting computations.  Scanning the table in enumeration
order is already an approximation from above: each estimate's trace is a
running minimum that never increases.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

from .proglang import (
    CALLC,
    ENCODING_VERSION,
    DecodedProgram,
    Program,
    decode,
    enumerate_programs,
    program_from_json,
    program_to_json,
)
from .statevec import StateVector, apply_gate, state_from_json, state_to_json, zero_state

HALTED = "halted"
DECODE_FAILED = "decode_failed"

_sim_count = 0


def simulation_count() -> int:
    """How many programs have been executed by run() in this process.  The
    candidate table is built by stepping parent rows, not by run(), so
    building it leaves this count unchanged."""
    return _sim_count


@dataclass(frozen=True)
class RunResult:
    program: Program
    status: str
    output: Optional[StateVector]
    steps: int


def _check_conditional(conditional: Optional[DecodedProgram], n: int) -> None:
    if conditional is None:
        return
    if conditional.has_call:
        raise ValueError("a conditional program may not contain CALLC")
    if conditional.n != n:
        raise ValueError(
            f"conditional was decoded for n={conditional.n}, run uses n={n}"
        )


def run(
    program: Program, n: int, conditional: Optional[DecodedProgram] = None
) -> RunResult:
    """Execute one program on the |0^n> register, with each CALLC replaced by
    the conditional's gates.

    Decode failures -- including a CALLC with no conditional supplied -- yield
    status "decode_failed" with no output; they contribute nothing to any
    minimum downstream.
    """
    global _sim_count
    _sim_count += 1
    _check_conditional(conditional, n)
    decoded = decode(program.bits, n)
    if decoded is None or (decoded.has_call and conditional is None):
        return RunResult(program, DECODE_FAILED, None, 0)
    state = zero_state(n)
    steps = 0
    for op in decoded.gates:
        for g in conditional.gates if isinstance(op, CALLC) else (op,):
            state = apply_gate(state, g)
            steps += 1
    return RunResult(program, HALTED, state, steps)


# ---------------------------------------------------------------------------
# The candidate table and its persistent cache
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CandidateTable:
    """Every halting program up to max_len on n qubits, run once: `rows`
    holds (enumeration index, program, output) in enumeration order.  A table
    answers only for the (n, max_len, conditional) it was built for."""

    n: int
    max_len: int
    conditional: Optional[DecodedProgram]
    rows: tuple[tuple[int, Program, StateVector], ...]

    @property
    def scanned(self) -> int:
        """Index of the last halting program plus 1; 0 if none halts."""
        return self.rows[-1][0] + 1 if self.rows else 0

    @cached_property
    def firsts(self) -> tuple[tuple[int, Program, StateVector], ...]:
        """The first row of each distinct output.  A later program with an
        equal output has the same fidelity to every target and a larger
        (length, value), so no minimizing scan can prefer it."""
        first: dict = {}
        for row in self.rows:
            first.setdefault(row[2], row)
        return tuple(first.values())

    def check(self, n: int, max_len: int, conditional=None) -> "CandidateTable":
        """This table, if it was built for (n, max_len, conditional)."""
        have, want = (self.n, self.max_len, self.conditional), (n, max_len, conditional)
        if have != want:
            raise ValueError(
                f"candidate table for (n, max_len, conditional) = {have} used for {want}"
            )
        return self

    def with_conditional(self, conditional: DecodedProgram) -> "CandidateTable":
        """The table for the same (n, max_len) with `conditional`, built from
        this table with no conditional: its rows seed the parent lookup, so
        each CALLC program takes one step from its parent row."""
        self.check(self.n, self.max_len)
        known = {p: out for _i, p, out in self.rows}
        return _build_table(self.n, self.max_len, conditional, known)


def _build_table(n: int, max_len: int, conditional=None, known=None) -> CandidateTable:
    """Every halting program's output, one step per row.

    Dropping a program's last op leaves a shorter decodable program, which
    comes earlier in the enumeration and halts whenever the program does; so
    each row is its parent row's output with that op applied (the
    conditional's gates for a CALLC), and the empty program is |0^n>.  No row
    falls back to `run`: a parent missing from the lookup is a broken
    invariant and raises AssertionError.

    `known` holds the outputs of a table with no conditional, which lists
    every program that halts without one.  With no conditional it is the
    whole table, so nothing is decoded; with one, its rows seed the lookup
    and only the CALLC programs take a step.
    """
    _check_conditional(conditional, n)
    programs = enumerate(enumerate_programs(max_len, n))
    if known is not None and conditional is None:
        rows = [(idx, prog, known[prog]) for idx, prog in programs if prog in known]
        return CandidateTable(n, max_len, conditional, tuple(rows))
    known = known or {}
    outputs: dict = {}  # decoded gate tuple -> output
    rows = []
    for idx, prog in programs:
        decoded = decode(prog.bits, n)  # every enumerated program decodes
        if decoded.has_call and conditional is None:
            continue
        gates = decoded.gates
        out = known.get(prog)
        if out is None and not gates:
            out = zero_state(n)
        elif out is None:
            out = outputs.get(gates[:-1])
            if out is None:
                raise AssertionError(f"program {prog} has no earlier parent row")
            last = gates[-1]
            for g in conditional.gates if isinstance(last, CALLC) else (last,):
                out = apply_gate(out, g)
        outputs[gates] = out
        rows.append((idx, prog, out))
    return CandidateTable(n, max_len, conditional, tuple(rows))


def candidate_table(n: int, max_len: int, conditional=None, cache_dir=None) -> CandidateTable:
    """The table a command builds once and scores every target against.  With
    a cache_dir, the table with no conditional is read from or written to the
    cache; a conditional table reuses it and steps only the CALLC programs."""
    if cache_dir is None:
        return _build_table(n, max_len, conditional)
    table = cached_outputs(n, max_len, cache_dir)
    return table if conditional is None else table.with_conditional(conditional)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _record_sha(record: dict) -> str:
    return hashlib.sha256(_canonical(record).encode("ascii")).hexdigest()


def _header(n: int, max_len: int, records: int) -> dict:
    return {"version": ENCODING_VERSION, "n": n, "max_len": max_len, "records": records}


def cache_path(cache_dir, n: int, max_len: int) -> Path:
    return Path(cache_dir) / f"outputs-{ENCODING_VERSION}-n{n}-len{max_len}.jsonl"


def _read_cache(path: Path, n: int, max_len: int) -> Optional[dict]:
    """The file's {program: output}, or None if it is stale or does not
    parse.  Only I/O and parse errors mean a bad file; any other exception is
    a bug and propagates."""
    try:
        lines = path.read_text().splitlines()
        # the record count catches a file that lost whole lines
        if json.loads(lines[0]) != _header(n, max_len, len(lines) - 1):
            return None
        known = {}
        for line in lines[1:]:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"cache record is not a JSON object: {line!r}")
            sha = record.pop("sha")
            if sha != _record_sha(record):
                return None
            prog = program_from_json(record["program"])
            known[prog] = state_from_json(record["output"])
        return known
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return None


def cached_outputs(n: int, max_len: int, cache_dir) -> CandidateTable:
    """The candidate table with no conditional, persisted as one JSON-lines
    file per (encoding version, n, max_len).  A valid file lists every halting
    program, so a warm read runs nothing.  A stale or corrupt file (bad hash,
    wrong version or record count, unparsable) is recomputed with a warning."""
    path = cache_path(cache_dir, n, max_len)
    if path.exists():
        known = _read_cache(path, n, max_len)
        if known is not None:
            return _build_table(n, max_len, known=known)
        warnings.warn(f"cache file {path} is stale or corrupt; recomputing")
    table = _build_table(n, max_len)
    lines = [_canonical(_header(n, max_len, len(table.rows)))]
    for _idx, prog, out in table.rows:
        record = {
            "program": program_to_json(prog),
            "output": state_to_json(out),
        }
        record["sha"] = _record_sha(record)
        lines.append(_canonical(record))
    path.parent.mkdir(parents=True, exist_ok=True)
    # each writer has a temp file of its own, so concurrent builders of one
    # cache never truncate each other's; readers only see complete files
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)
    return table
