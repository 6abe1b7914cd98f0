"""Runs decoded programs from |0...0>, and builds every halting program's
output in one pass, one gate step per distinct (parent output, last op) pair.
The pass is a stream of rows in enumeration order: the sampled mode reads it
as far as its scan goes, and the candidate table every exact scan reads keeps
the first program of each distinct output.  The table's persistent cache
stores those firsts as they are, so a warm read neither enumerates nor
applies a gate.

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
from pathlib import Path
from typing import Iterator, Optional

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

Row = tuple[int, Program, StateVector]  # (enumeration index, program, output)


@dataclass(frozen=True)
class CandidateTable:
    """What every exact scan reads: `firsts` holds (enumeration index,
    program, output) of the first halting program of each distinct output, in
    enumeration order, and `scanned` is the index of the last halting program
    plus 1.  A later program with an equal output has the same fidelity to
    every target and a larger (length, value), so no minimizing scan can
    prefer it.  A table answers only for the (n, max_len, conditional) it was
    built for."""

    n: int
    max_len: int
    conditional: Optional[DecodedProgram]
    firsts: tuple[Row, ...]
    scanned: int

    def check(self, n: int, max_len: int) -> "CandidateTable":
        """This table, if it was built for (n, max_len) with no conditional."""
        have, want = (self.n, self.max_len, self.conditional), (n, max_len, None)
        if have != want:
            raise ValueError(
                f"candidate table for (n, max_len, conditional) = {have} used for {want}"
            )
        return self


def _build(n: int, max_len: int, conditional=None) -> Iterator[tuple[Row, bool]]:
    """The (index, program, output) row of every halting program up to
    max_len, in enumeration order, one step per distinct (parent output, last
    op) pair, each with whether it is the first row of its output.  A lazy
    generator: a reader that stops early stops the build there.

    Each program's gates come with it from `enumerate_decoded`, so the build
    decodes nothing.  Dropping a program's last op leaves a shorter decodable
    program, which comes earlier in the enumeration and halts whenever the
    program does; so each row is its parent row's output with that op applied
    (the conditional's gates for a CALLC), and the empty program is |0^n>.
    No row falls back to `run`: a parent missing from the lookup is a broken
    invariant and raises AssertionError.

    Equal outputs are one object: every new state is interned, so a step is
    memoized by (id of the parent output, last op), and rows that reach one
    state by different routes share it.  A row is a first exactly when its
    step makes a state not interned before.  Programs collapse onto few
    states, so most rows reuse a step (969 rows take 348 steps at n=3,
    max_len=20).
    """
    _check_conditional(conditional, n)
    interned: dict = {}  # state -> its one object
    outputs: dict = {(): zero_state(n)}  # gate tuple -> output
    steps: dict = {}  # (id(parent output), last op or None) -> output
    for idx, (prog, gates) in enumerate(enumerate_decoded(max_len, n)):
        if conditional is None and CALLC in map(type, gates):
            continue
        parent = outputs.get(gates[:-1])  # the empty program is its own parent
        if parent is None:
            raise AssertionError(f"program {prog} has no earlier parent row")
        last = gates[-1] if gates else None
        key = (id(parent), last)
        out, first = steps.get(key), False
        if out is None:
            out = parent
            if last is not None:
                for g in conditional.gates if isinstance(last, CALLC) else (last,):
                    out = apply_gate(out, g)
            first = out not in interned
            out = steps[key] = interned.setdefault(out, out)
        outputs[gates] = out
        yield (idx, prog, out), first


def candidate_rows(n: int, max_len: int, conditional=None) -> list[Row]:
    """Every row of `_build`, repeated outputs included, as a list: the rows
    the sampled mode reads from the stream, up to where its scan stops."""
    return [row for row, _first in _build(n, max_len, conditional)]


def _build_table(n: int, max_len: int, conditional=None) -> CandidateTable:
    """The table of `_build`'s first rows."""
    firsts, scanned = [], 0
    for row, first in _build(n, max_len, conditional):
        scanned = row[0] + 1
        if first:
            firsts.append(row)
    return CandidateTable(n, max_len, conditional, tuple(firsts), scanned)


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


def _header(n: int, max_len: int, firsts: int, sha: str) -> dict:
    return {
        "format": "indexed-firsts",
        "version": ENCODING_VERSION,
        "n": n,
        "max_len": max_len,
        "firsts": firsts,
        "sha256": sha,
    }


def cache_path(cache_dir, n: int, max_len: int) -> Path:
    return Path(cache_dir) / f"outputs-{ENCODING_VERSION}-n{n}-len{max_len}.jsonl"


def _read_cache(path: Path, n: int, max_len: int) -> Optional[CandidateTable]:
    """The table stored in the file, or None if it is stale or does not parse.

    The file is a header line and a body line.  The header must equal
    `_header` for this (n, max_len), with the sha256 of the body text; the
    body is {"firsts": [[index, program, state], ...], "scanned": int}, and
    the header's count must match the firsts.  Each index must be an int, at
    least 0 and larger than the one before, and `scanned` an int past the
    last.  The programs must come in strictly increasing (length, value)
    order, the order every scan relies on, and none may be longer than
    max_len.  Each state is parsed once, which runs the exact unit-norm
    check, and must be on n qubits, and no state may be stored twice.  A file
    in any other layout, the older ones included, is stale.

    Only I/O and parse errors mean a bad file; any other exception is a bug
    and propagates."""
    try:
        header, body = path.read_text().splitlines()
        head = json.loads(header)
        if head != _header(n, max_len, head["firsts"], _sha(body)):
            return None
        data = json.loads(body)
        if len(data["firsts"]) != head["firsts"]:
            return None
        firsts = []
        last, last_key = -1, (-1, "")
        for idx, prog, state in data["firsts"]:
            if type(idx) is not int or idx <= last:
                return None
            program = program_from_json(prog)
            bits = program.bits  # equal-length bit strings sort as their values
            key = (len(bits), bits)
            if key <= last_key or key[0] > max_len:
                return None
            firsts.append((idx, program, state_from_json(state)))
            last, last_key = idx, key
        scanned = data["scanned"]
        if type(scanned) is not int or scanned <= last:
            return None
        outputs = {out for _idx, _prog, out in firsts}
        if len(outputs) != len(firsts) or any(out.n_qubits != n for out in outputs):
            return None
        return CandidateTable(n, max_len, None, tuple(firsts), scanned)
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return None


def cached_outputs(n: int, max_len: int, cache_dir) -> CandidateTable:
    """The candidate table with no conditional, persisted as one file per
    (encoding version, n, max_len): a header line with the body's sha256,
    and a body that stores each first row, in enumeration order, with its
    enumeration index, program and output, and the table's `scanned`.  A
    warm read returns the table as stored: it neither enumerates nor applies
    a gate.  A file that fails any check of `_read_cache` (layout, version,
    bound, count, hash, exact unit norm, n, a state stored twice, indices,
    `scanned`, program order and lengths) is recomputed with a warning and
    rewritten."""
    path = cache_path(cache_dir, n, max_len)
    if path.exists():
        table = _read_cache(path, n, max_len)
        if table is not None:
            return table
        warnings.warn(f"cache file {path} is stale or corrupt; recomputing")
    table = _build_table(n, max_len)
    firsts = [[idx, program_to_json(prog), state_to_json(out)] for idx, prog, out in table.firsts]
    body = _canonical({"firsts": firsts, "scanned": table.scanned})
    header = _canonical(_header(n, max_len, len(firsts), _sha(body)))
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
