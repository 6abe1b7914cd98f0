"""Runs decoded programs from |0...0>, dovetailed across the enumeration,
and the candidate table every estimator scans, with its persistent cache.

Every syntactically valid program here halts, so dovetailing is degenerate --
but the staged schedule is implemented faithfully, and decode failures play
the role of non-halting computations.
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
from typing import Iterable, Iterator, Optional

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
    """How many programs have been executed by run() in this process; lets
    tests prove that a warm cache performs zero simulations."""
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


def _expanded_gates(
    program: Program, n: int, conditional: Optional[DecodedProgram]
) -> Optional[list]:
    """Gate list with CALLC spliced out, or None for a non-halting program."""
    decoded = decode(program.bits, n)
    if decoded is None:
        return None
    if decoded.has_call and conditional is None:
        return None
    gates = []
    for op in decoded.gates:
        if isinstance(op, CALLC):
            gates.extend(conditional.gates)
        else:
            gates.append(op)
    return gates


def run(
    program: Program, n: int, conditional: Optional[DecodedProgram] = None
) -> RunResult:
    """Execute one program on the |0^n> register.

    Decode failures -- including a CALLC with no conditional supplied -- yield
    status "decode_failed" with no output; they contribute nothing to any
    minimum downstream.
    """
    global _sim_count
    _sim_count += 1
    _check_conditional(conditional, n)
    gates = _expanded_gates(program, n, conditional)
    if gates is None:
        return RunResult(program, DECODE_FAILED, None, 0)
    state = zero_state(n)
    for g in gates:
        state = apply_gate(state, g)
    return RunResult(program, HALTED, state, len(gates))


class Dovetailer:
    """Staged interleaving of many program runs.

    In stage k, program k-i+1 (1-based) receives its i-th computation step for
    i = 1..k, so every program eventually progresses.  One step is one gate
    application; decoding is free and happens at a program's first slot, where
    empty and undecodable programs immediately complete.

    Iterating yields each RunResult exactly once, in completion order.  With a
    finite step budget, programs still unfinished when it runs out are listed
    in `unprocessed` rather than silently dropped.
    """

    def __init__(
        self,
        programs: Iterable[Program],
        n: int,
        conditional: Optional[DecodedProgram] = None,
        step_budget: Optional[int] = None,
    ):
        _check_conditional(conditional, n)
        self.programs = list(programs)
        self.n = n
        self.conditional = conditional
        self.budget_left = step_budget
        self.offered = [0] * len(self.programs)
        self.stages_run = 0
        self.exhausted = False
        self.unprocessed: list[Program] = []
        self._gates: list = [None] * len(self.programs)
        self._states: list = [None] * len(self.programs)
        self._cursor = [0] * len(self.programs)
        self._started = [False] * len(self.programs)
        self._done = [False] * len(self.programs)

    def _slot(self, j: int) -> Optional[RunResult]:
        """Offer one step to program j (0-based); return its result if this
        slot completes it."""
        self.offered[j] += 1
        if self._done[j]:
            return None
        prog = self.programs[j]
        if not self._started[j]:
            self._started[j] = True
            self._gates[j] = _expanded_gates(prog, self.n, self.conditional)
            if self._gates[j] is None:
                self._done[j] = True
                return RunResult(prog, DECODE_FAILED, None, 0)
            self._states[j] = zero_state(self.n)
            if not self._gates[j]:
                self._done[j] = True
                return RunResult(prog, HALTED, self._states[j], 0)
        if self.budget_left is not None:
            if self.budget_left == 0:
                self.exhausted = True
                return None
            self.budget_left -= 1
        cur = self._cursor[j]
        self._states[j] = apply_gate(self._states[j], self._gates[j][cur])
        self._cursor[j] = cur + 1
        if self._cursor[j] == len(self._gates[j]):
            self._done[j] = True
            return RunResult(prog, HALTED, self._states[j], self._cursor[j])
        return None

    def advance_stage(self) -> list[RunResult]:
        """Run one stage of the schedule; used directly by step-accounting
        tests, and by iteration."""
        self.stages_run += 1
        k = self.stages_run
        completed = []
        for i in range(1, k + 1):
            j = k - i  # program k-i+1, 0-based
            if j >= len(self.programs):
                continue
            result = self._slot(j)
            if self.exhausted:
                break
            if result is not None:
                completed.append(result)
        return completed

    def results(self) -> Iterator[RunResult]:
        while not self.exhausted and not all(self._done):
            yield from self.advance_stage()
        if self.exhausted:
            self.unprocessed = [
                p for p, done in zip(self.programs, self._done) if not done
            ]

    def __iter__(self) -> Iterator[RunResult]:
        return self.results()


def dovetail(
    programs: Iterable[Program],
    n: int,
    conditional: Optional[DecodedProgram] = None,
    step_budget: Optional[int] = None,
) -> Dovetailer:
    return Dovetailer(programs, n, conditional=conditional, step_budget=step_budget)


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


def _build_table(n: int, max_len: int, conditional=None, known=None) -> CandidateTable:
    """Run every enumerated program once.  Programs in `known` (outputs read
    from a cache, which holds every program that halts with no conditional)
    are not run again; with no conditional, nothing outside it halts."""
    _check_conditional(conditional, n)
    rows = []
    for idx, prog in enumerate(enumerate_programs(max_len, n)):
        out = None if known is None else known.get(prog)
        if out is None and (known is None or conditional is not None):
            out = run(prog, n, conditional).output
        if out is not None:
            rows.append((idx, prog, out))
    return CandidateTable(n, max_len, conditional, tuple(rows))


def candidate_table(n: int, max_len: int, conditional=None, cache_dir=None) -> CandidateTable:
    """The table a command builds once and scores every target against.  With
    a cache_dir, the table with no conditional is read from or written to the
    cache; a conditional table reuses it and runs only the CALLC programs."""
    if cache_dir is None:
        return _build_table(n, max_len, conditional)
    table = cached_outputs(n, max_len, cache_dir)
    if conditional is None:
        return table
    return _build_table(n, max_len, conditional, {p: out for _i, p, out in table.rows})


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _record_sha(record: dict) -> str:
    return hashlib.sha256(_canonical(record).encode("ascii")).hexdigest()


def _header(n: int, max_len: int, records: int) -> dict:
    return {"version": ENCODING_VERSION, "n": n, "max_len": max_len, "records": records}


def cache_path(cache_dir, n: int, max_len: int) -> Path:
    return Path(cache_dir) / f"outputs-{ENCODING_VERSION}-n{n}-len{max_len}.jsonl"


def _read_cache(path: Path, n: int, max_len: int) -> Optional[dict]:
    try:
        lines = path.read_text().splitlines()
        # the record count catches a file that lost whole lines
        if json.loads(lines[0]) != _header(n, max_len, len(lines) - 1):
            return None
        known = {}
        for line in lines[1:]:
            record = json.loads(line)
            sha = record.pop("sha")
            if sha != _record_sha(record):
                return None
            prog = program_from_json(record["program"])
            known[prog] = state_from_json(record["output"])
        return known
    except Exception:
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
            "steps": len(decode(prog.bits, n).gates),
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
