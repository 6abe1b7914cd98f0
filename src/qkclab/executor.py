"""Runs decoded programs from |0...0>, and builds the candidate table every
estimator scans, one gate step per distinct (parent output, last op) pair,
with its persistent cache: the file stores the table's rows as they are, so
a warm read neither enumerates nor applies a gate.

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
    enumerate_decoded,
    program_from_json,
    program_to_json,
)
from .statevec import StateVector, apply_gate, state_from_json, state_to_json, zero_state


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
) -> Optional[StateVector]:
    """The output of one program on the |0^n> register, with each CALLC
    replaced by the conditional's gates.

    Decode failures -- including a CALLC with no conditional supplied -- yield
    None, the role a non-halting computation plays here; they contribute
    nothing to any minimum downstream.
    """
    _check_conditional(conditional, n)
    decoded = decode(program.bits, n)
    if decoded is None or (decoded.has_call and conditional is None):
        return None
    state = zero_state(n)
    for op in decoded.gates:
        for g in conditional.gates if isinstance(op, CALLC) else (op,):
            state = apply_gate(state, g)
    return state


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
        (length, value), so no minimizing scan can prefer it.  Rows of equal
        output share one StateVector, so they are told apart by identity
        and no state is hashed."""
        first: dict = {}
        for row in self.rows:
            first.setdefault(id(row[2]), row)
        return tuple(first.values())

    def check(self, n: int, max_len: int, conditional=None) -> "CandidateTable":
        """This table, if it was built for (n, max_len, conditional)."""
        have, want = (self.n, self.max_len, self.conditional), (n, max_len, conditional)
        if have != want:
            raise ValueError(
                f"candidate table for (n, max_len, conditional) = {have} used for {want}"
            )
        return self


def _build_table(n: int, max_len: int, conditional=None) -> CandidateTable:
    """Every halting program's output, one step per distinct (parent output,
    last op) pair.

    Each program's gates come with it from `enumerate_decoded`, so the build
    decodes nothing.  Dropping a program's last op leaves a shorter decodable
    program, which comes earlier in the enumeration and halts whenever the
    program does; so each row is its parent row's output with that op applied
    (the conditional's gates for a CALLC), and the empty program is |0^n>.
    No row falls back to `run`: a parent missing from the lookup is a broken
    invariant and raises AssertionError.

    Equal outputs are one object: every new state is interned, so a step is
    memoized by (id of the parent output, last op), and rows that reach one
    state by different routes share it.  Programs collapse onto few states,
    so most rows reuse a step (969 rows take 348 steps at n=3, max_len=20).
    """
    _check_conditional(conditional, n)
    interned: dict = {}  # state -> its one object
    outputs: dict = {}  # gate tuple -> output
    steps: dict = {}  # (id(parent output), last op) -> output
    rows = []
    for idx, (prog, gates) in enumerate(enumerate_decoded(max_len, n)):
        if conditional is None and CALLC in map(type, gates):
            continue
        if not gates:
            out = zero_state(n)
            out = interned.setdefault(out, out)
        else:
            parent = outputs.get(gates[:-1])
            if parent is None:
                raise AssertionError(f"program {prog} has no earlier parent row")
            last = gates[-1]
            out = steps.get((id(parent), last))
            if out is None:
                out = parent
                for g in conditional.gates if isinstance(last, CALLC) else (last,):
                    out = apply_gate(out, g)
                out = steps[id(parent), last] = interned.setdefault(out, out)
        outputs[gates] = out
        rows.append((idx, prog, out))
    return CandidateTable(n, max_len, conditional, tuple(rows))


def candidate_table(n: int, max_len: int, conditional=None, cache_dir=None) -> CandidateTable:
    """The table a command builds once and scores every target against.  With
    a cache_dir, the table with no conditional is read from or written to the
    cache; a table with a conditional is always built fresh and never cached."""
    if cache_dir is None or conditional is not None:
        return _build_table(n, max_len, conditional)
    return cached_outputs(n, max_len, cache_dir)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _header(n: int, max_len: int, rows: int, outputs: int, sha: str) -> dict:
    return {
        "format": "outputs+indexed-rows",
        "version": ENCODING_VERSION,
        "n": n,
        "max_len": max_len,
        "rows": rows,
        "outputs": outputs,
        "sha256": sha,
    }


def cache_path(cache_dir, n: int, max_len: int) -> Path:
    return Path(cache_dir) / f"outputs-{ENCODING_VERSION}-n{n}-len{max_len}.jsonl"


def _read_cache(path: Path, n: int, max_len: int) -> Optional[CandidateTable]:
    """The table stored in the file, or None if it is stale or does not parse.

    The file is a header line and a body line.  The header must equal
    `_header` for this (n, max_len), with the sha256 of the body text; the
    body is {"outputs": [state, ...], "rows": [[index, program, output id],
    ...]}, each distinct output stored once.  Each state is parsed once,
    which runs the exact unit-norm check, and must be on n qubits; every
    output id must index `outputs`, so rows of equal output share one
    StateVector, and no state may repeat, so rows of unequal id have unequal
    outputs.  Each output id must be an int, and so must each index, at least
    0 and larger than the one before.  The programs must come in strictly
    increasing (length, value) order, the order every scan relies on, and
    none may be longer than max_len.  The header's row and output counts
    must match the body.  A file in any other layout, the older ones
    included, is stale.

    Only I/O and parse errors mean a bad file; any other exception is a bug
    and propagates."""
    try:
        header, body = path.read_text().splitlines()
        head = json.loads(header)
        if head != _header(n, max_len, head["rows"], head["outputs"], _sha(body)):
            return None
        data = json.loads(body)
        outputs = [state_from_json(obj) for obj in data["outputs"]]
        if (len(data["rows"]), len(outputs)) != (head["rows"], head["outputs"]):
            return None
        if any(out.n_qubits != n for out in outputs) or len(set(outputs)) != len(outputs):
            return None
        rows = []
        last, last_key = -1, (-1, "")
        for idx, prog, out_id in data["rows"]:
            if type(idx) is not int or idx <= last:
                return None
            if type(out_id) is not int or not 0 <= out_id < len(outputs):
                return None
            program = program_from_json(prog)
            bits = program.bits  # equal-length bit strings sort as their values
            key = (len(bits), bits)
            if key <= last_key or key[0] > max_len:
                return None
            rows.append((idx, program, outputs[out_id]))
            last, last_key = idx, key
        return CandidateTable(n, max_len, None, tuple(rows))
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return None


def cached_outputs(n: int, max_len: int, cache_dir) -> CandidateTable:
    """The candidate table with no conditional, persisted as one file per
    (encoding version, n, max_len): a header line with the body's sha256,
    and a body that stores each distinct output once and one row per halting
    program, in enumeration order, with its enumeration index and a pointer
    to its output.  A warm read returns the table as stored: it neither
    enumerates nor applies a gate.  A file that fails any check of
    `_read_cache` (layout, version, bound, counts, hash, exact unit norm, n,
    indices, output ids, program order and lengths) is recomputed with a
    warning and rewritten."""
    path = cache_path(cache_dir, n, max_len)
    if path.exists():
        table = _read_cache(path, n, max_len)
        if table is not None:
            return table
        warnings.warn(f"cache file {path} is stale or corrupt; recomputing")
    table = _build_table(n, max_len)
    outputs = [out for _i, _p, out in table.firsts]
    ids = {id(out): k for k, out in enumerate(outputs)}  # in first-occurrence order
    rows = [[idx, program_to_json(prog), ids[id(out)]] for idx, prog, out in table.rows]
    body = _canonical({"outputs": [state_to_json(out) for out in outputs], "rows": rows})
    header = _canonical(_header(n, max_len, len(rows), len(outputs), _sha(body)))
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
