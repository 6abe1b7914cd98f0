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

_sim_count = 0


def simulation_count() -> int:
    """How many programs have been executed by run() in this process.  The
    candidate table is built by stepping parent rows, not by run(), so
    building it leaves this count unchanged."""
    return _sim_count


@dataclass(frozen=True)
class RunResult:
    """A program and its output; the output is None when the program does
    not decode, the role a non-halting computation plays here."""

    program: Program
    output: Optional[StateVector]


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
    no output; they contribute nothing to any minimum downstream.
    """
    global _sim_count
    _sim_count += 1
    _check_conditional(conditional, n)
    decoded = decode(program.bits, n)
    if decoded is None or (decoded.has_call and conditional is None):
        return RunResult(program, None)
    state = zero_state(n)
    for op in decoded.gates:
        for g in conditional.gates if isinstance(op, CALLC) else (op,):
            state = apply_gate(state, g)
    return RunResult(program, state)


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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _header(n: int, max_len: int, rows: int, outputs: int, sha: str) -> dict:
    return {
        "format": "outputs+rows",
        "version": ENCODING_VERSION,
        "n": n,
        "max_len": max_len,
        "rows": rows,
        "outputs": outputs,
        "sha256": sha,
    }


def cache_path(cache_dir, n: int, max_len: int) -> Path:
    return Path(cache_dir) / f"outputs-{ENCODING_VERSION}-n{n}-len{max_len}.jsonl"


def _read_cache(path: Path, n: int, max_len: int) -> Optional[dict]:
    """The file's {program: output}, or None if it is stale or does not parse.

    The file is a header line and a body line.  The header must equal
    `_header` for this (n, max_len), with the sha256 of the body text; the
    body is {"outputs": [state, ...], "rows": [[program, output id], ...]},
    each distinct output stored once.  Each state is parsed once, which runs
    the exact unit-norm check, and must be on n qubits; every output id must
    index `outputs`, so rows of equal output share one StateVector.  The
    header's row and output counts must match the body.  A file in any other
    layout, the older one record per line included, is stale.

    Only I/O and parse errors mean a bad file; any other exception is a bug
    and propagates."""
    try:
        header, body = path.read_text().splitlines()
        head = json.loads(header)
        if head != _header(n, max_len, head["rows"], head["outputs"], _sha(body)):
            return None
        data = json.loads(body)
        outputs = [state_from_json(obj) for obj in data["outputs"]]
        rows = data["rows"]
        if (len(rows), len(outputs)) != (head["rows"], head["outputs"]):
            return None
        if any(out.n_qubits != n for out in outputs):
            return None
        known = {}
        for prog, out_id in rows:
            if not 0 <= out_id < len(outputs):
                return None
            known[program_from_json(prog)] = outputs[out_id]
        return known
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return None


def cached_outputs(n: int, max_len: int, cache_dir) -> CandidateTable:
    """The candidate table with no conditional, persisted as one file per
    (encoding version, n, max_len): a header line with the body's sha256,
    and a body that stores each distinct output once and one row per halting
    program, in enumeration order, pointing to its output.  Enumeration
    indices are never stored; a read takes them from `enumerate_programs`.
    A valid file lists every halting program, so a warm read applies no
    gate.  A file that fails any check of `_read_cache` (layout, version,
    bound, counts, hash, exact unit norm, n, output ids) is recomputed with
    a warning and rewritten."""
    path = cache_path(cache_dir, n, max_len)
    if path.exists():
        known = _read_cache(path, n, max_len)
        if known is not None:
            return _build_table(n, max_len, known=known)
        warnings.warn(f"cache file {path} is stale or corrupt; recomputing")
    table = _build_table(n, max_len)
    ids: dict = {}  # output -> its index in the file's outputs
    rows = [[program_to_json(prog), ids.setdefault(out, len(ids))] for _i, prog, out in table.rows]
    body = _canonical({"outputs": [state_to_json(out) for out in ids], "rows": rows})
    header = _canonical(_header(n, max_len, len(rows), len(ids), _sha(body)))
    path.parent.mkdir(parents=True, exist_ok=True)
    # each writer has a temp file of its own, so concurrent builders of one
    # cache never truncate each other's; readers only see complete files
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(header + "\n" + body + "\n")
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)
    return table
