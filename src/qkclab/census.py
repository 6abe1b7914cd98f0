"""Experiment suite over the estimator: incompressibility counting for whole
bases, consistency against exact classical program length, sub-additivity and
joint-state bounds for directly computable states, and the superposed-bit
worked example.

Reports are plain dataclasses with JSON/CSV projections; persistence and
manifests are the CLI's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional

from .estimator import (
    EstimateRecord,
    ExactEstimate,
    exact_estimate,
    shortest_exact_program,
)
from .executor import CandidateTable, candidate_table, run
from .proglang import (
    DecodedProgram,
    Program,
    decode,
    encode,
    program_to_json,
)
from .statevec import (
    CNOT,
    ROT,
    Basis,
    Gate,
    X,
    apply_gate,
    classical_state,
    fidelity,
    operands,
    random_state,
    shannon_fano_lengths,
    standard_basis,
    tensor,
    transformed_basis,
)


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def record_obj(record: Optional[EstimateRecord]) -> Optional[dict]:
    if record is None:
        return None
    return {
        "program": program_to_json(record.program),
        "length": record.length,
        "fidelity": frac_str(record.fidelity),
        "penalty": record.penalty,
        "total": record.total,
    }


# ---------------------------------------------------------------------------
# Incompressibility counting
# ---------------------------------------------------------------------------

@dataclass
class CensusReport:
    """Counting verdict for one basis: how many basis vectors have an estimate
    below n - c, against the bound 2^(n-c).

    The bound is provable for this machine: for any halting program, at most
    2^d basis vectors of an orthonormal basis can carry penalty <= d (their
    fidelities each reach 2^-d and sum to at most 1), and the program lengths
    obey the Kraft inequality, so the count is at most 2^(n-c-1).
    """

    n: int
    c: int
    max_len: int
    basis_label: str
    estimates: list[ExactEstimate]
    count_below: int
    bound: int
    verdict: bool

    def to_json_obj(self) -> dict:
        return {
            "kind": "census",
            "n": self.n,
            "c": self.c,
            "max_len": self.max_len,
            "basis": self.basis_label,
            "threshold": self.n - self.c,
            "count_below": self.count_below,
            "bound": self.bound,
            "verdict": self.verdict,
            "vectors": [
                {
                    "index": i,
                    "best": record_obj(est.best),
                    "trace": [[idx, total] for idx, total in est.trace],
                }
                for i, est in enumerate(self.estimates)
            ],
        }

    def csv_header(self) -> list[str]:
        return ["index", "total", "length", "penalty", "fidelity", "program_bits"]

    def csv_rows(self) -> list[list]:
        rows = []
        for i, est in enumerate(self.estimates):
            if est.best is None:
                rows.append([i, "", "", "", "", ""])
            else:
                b = est.best
                rows.append(
                    [i, b.total, b.length, b.penalty, frac_str(b.fidelity), b.program.bits]
                )
        return rows


def incompressibility_census(
    n: int,
    c: int,
    max_len: int,
    basis: Optional[Basis] = None,
    cache_dir=None,
    label: str = "standard",
) -> CensusReport:
    """Estimate every vector of a basis and count the ones below n - c."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    if basis is None:
        basis = standard_basis(n)
    if basis.n_qubits != n:
        raise ValueError("basis dimension does not match n")
    table = candidate_table(n, max_len, cache_dir=cache_dir)
    estimates = [exact_estimate(v, table) for v in basis.vectors]
    threshold = n - c
    count_below = sum(
        1 for est in estimates if est.best is not None and est.best.total < threshold
    )
    bound = 1 << (n - c) if n >= c else 1
    return CensusReport(n, c, max_len, label, estimates, count_below, bound, count_below < bound)


def rotation_circuit(n: int) -> list[Gate]:
    """Fixed entangling circuit used to produce a non-classical basis."""
    gates: list[Gate] = [ROT(0)]
    for i in range(n - 1):
        gates.append(CNOT(i, i + 1))
        gates.append(ROT(i + 1))
    return gates


def rotated_basis(n: int) -> Basis:
    return transformed_basis(n, rotation_circuit(n))


def uniform_sweep(
    n: int, c: int, max_len: int, samples: int, seed: int, cache_dir=None
) -> dict:
    """Monte Carlo stand-in for the continuum claim: the empirical fraction of
    pseudo-random rational unit vectors whose estimate is at least n - c."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    if samples < 1:
        raise ValueError("samples must be a positive integer")
    rng = Random(f"sweep:{seed}")
    table = candidate_table(n, max_len, cache_dir=cache_dir)
    threshold = n - c
    incompressible = 0
    no_estimate = 0
    for _ in range(samples):
        target = random_state(n, rng)
        est = exact_estimate(target, table)
        if est.best is None:
            no_estimate += 1  # counts as >= threshold: no short description exists
            incompressible += 1
        elif est.best.total >= threshold:
            incompressible += 1
    return {
        "kind": "uniform_sweep",
        "n": n,
        "c": c,
        "max_len": max_len,
        "samples": samples,
        "seed": seed,
        "threshold": threshold,
        "fraction_incompressible": incompressible / samples,
        "no_finite_estimate": no_estimate,
    }


# ---------------------------------------------------------------------------
# Consistency with exact program length on classical targets
# ---------------------------------------------------------------------------

@dataclass
class ConsistencyRecord:
    """A = estimate with penalties allowed; B = shortest program producing the
    basis state exactly.  A <= B always: the exact program is one of A's
    candidates with penalty zero."""

    bits: str
    estimate: ExactEstimate
    exact_program: Optional[Program]
    gap: Optional[int]

    def to_json_obj(self) -> dict:
        return {
            "bits": self.bits,
            "a": record_obj(self.estimate.best),
            "b_program": program_to_json(self.exact_program) if self.exact_program else None,
            "b_length": self.exact_program.length if self.exact_program else None,
            "gap": self.gap,
            "trace": [[idx, total] for idx, total in self.estimate.trace],
        }


def _consistency_record(bits: str, table: CandidateTable) -> ConsistencyRecord:
    target = classical_state(bits)
    est = exact_estimate(target, table)
    exact = shortest_exact_program(target, table)
    gap = None
    if exact is not None and est.best is not None:
        gap = exact.length - est.best.total
    return ConsistencyRecord(bits, est, exact, gap)


@dataclass
class ConsistencySweep:
    n: int
    max_len: int
    records: list[ConsistencyRecord]
    max_gap: Optional[int]

    def to_json_obj(self) -> dict:
        return {
            "kind": "consistency",
            "n": self.n,
            "max_len": self.max_len,
            "max_gap": self.max_gap,
            "records": [r.to_json_obj() for r in self.records],
        }

    def csv_header(self) -> list[str]:
        return ["bits", "a_total", "b_length", "gap"]

    def csv_rows(self) -> list[list]:
        rows = []
        for r in self.records:
            a = r.estimate.best.total if r.estimate.best else ""
            b = r.exact_program.length if r.exact_program else ""
            rows.append([r.bits, a, b, "" if r.gap is None else r.gap])
        return rows


def consistency_sweep(n: int, max_len: int, cache_dir=None) -> ConsistencySweep:
    """All 2^n classical strings; the largest gap is the measured analogue of
    the additive constant."""
    table = candidate_table(n, max_len, cache_dir=cache_dir)
    records = [_consistency_record(format(i, f"0{n}b"), table) for i in range(1 << n)]
    gaps = [r.gap for r in records if r.gap is not None]
    return ConsistencySweep(n, max_len, records, max(gaps) if gaps else None)


# ---------------------------------------------------------------------------
# Sub-additivity and the joint-state bound
# ---------------------------------------------------------------------------

def _decode_generator(p: Program, n: int, who: str) -> DecodedProgram:
    decoded = decode(p.bits, n, allow_callc=False)
    if decoded is None:
        raise ValueError(
            f"{who} must be a decodable CALLC-free program for n={n}: {p.bits!r}"
        )
    return decoded


def shift_gates(gates, offset: int):
    """Re-index a gate list onto a higher block of qubits."""
    return [type(g)(*(q + offset for q in operands(g))) for g in gates]


def product_witness(px: DecodedProgram, py: DecodedProgram) -> Program:
    """A joint-register program preparing (output of px) tensor (output of py):
    py's gates on the low block, px's on the high block.  Its length is the
    yardstick for whether an enumeration bound can see the joint description.
    """
    n = px.n + py.n
    gates = shift_gates(py.gates, px.n) + list(px.gates)
    return encode(gates, n)


@dataclass
class SubadditivityReport:
    """Two comparisons of one pair of generator outputs x and y, both n
    qubits wide: sub-additivity, and the joint-state bound, which sets the
    joint estimate against (estimate of y) - log2 fidelity(x, y)."""

    p_x: Program
    p_y: Program
    n: int
    max_len: int
    joint: ExactEstimate
    conditional: ExactEstimate
    unconditional_y: ExactEstimate
    fidelity_xy: Fraction
    witness_length: int
    conclusive: bool
    reason: str
    slack: Optional[int]

    @property
    def bound_rhs(self) -> Optional[float]:
        """None when x and y are orthogonal, where the bound says nothing, or
        when y has no estimate."""
        y_total = self.unconditional_y.total
        if self.fidelity_xy == 0 or y_total is None:
            return None
        return y_total - math.log2(self.fidelity_xy)

    @property
    def bound_slack(self) -> Optional[float]:
        rhs, lhs = self.bound_rhs, self.joint.total
        return None if rhs is None or lhs is None else rhs - lhs

    def to_json_obj(self) -> dict:
        applicable = self.fidelity_xy != 0
        programs = {
            "p_x": program_to_json(self.p_x),
            "p_y": program_to_json(self.p_y),
            "max_len": self.max_len,
        }
        return {
            "kind": "subadditivity",
            **programs,
            "n_x": self.n,
            "n_y": self.n,
            "joint": record_obj(self.joint.best),
            "conditional_x_given_py": record_obj(self.conditional.best),
            "y": record_obj(self.unconditional_y.best),
            "witness_length": self.witness_length,
            "conclusive": self.conclusive,
            "reason": self.reason,
            "slack": self.slack,
            "joint_bound": {
                "kind": "joint_bound",
                **programs,
                "fidelity_xy": frac_str(self.fidelity_xy),
                "applicable": applicable,
                "lhs_total": self.joint.total if applicable else None,
                "y_total": self.unconditional_y.total if applicable else None,
                "rhs": self.bound_rhs,
                "slack": self.bound_slack,
            },
        }

    def csv_header(self) -> list[str]:
        return ["term", "total"]

    def csv_rows(self) -> list[list]:
        rows = [
            ["joint", self.joint.total],
            ["x_given_py", self.conditional.total],
            ["y", self.unconditional_y.total],
            ["slack", self.slack],
        ]
        return [[term, "" if value is None else value] for term, value in rows]


def subadditivity_report(
    p_x: Program,
    p_y: Program,
    max_len: int,
    n: int = 1,
    cache_dir=None,
) -> SubadditivityReport:
    """slack = (estimate of x given p_y) + (estimate of y) - (joint estimate).

    The run is conclusive only when the product-style joint description fits
    inside max_len; a too-small bound is reported as inconclusive, never as a
    failed inequality.  The conditional p_y runs on x's register, so both
    generators run at the one width n.
    """
    dx = _decode_generator(p_x, n, "p_x")
    dy = _decode_generator(p_y, n, "p_y")
    y_table = candidate_table(n, max_len, cache_dir=cache_dir)
    x, y = run(p_x, n), run(p_y, n)
    x_table = candidate_table(n, max_len, dy)
    joint_table = candidate_table(2 * n, max_len, cache_dir=cache_dir)
    joint = exact_estimate(tensor(x, y), joint_table)
    cond = exact_estimate(x, x_table)
    uncond_y = exact_estimate(y, y_table)
    witness = product_witness(dx, dy)
    totals = (joint.total, cond.total, uncond_y.total)
    slack = None if None in totals else totals[1] + totals[2] - totals[0]
    reason = "ok"
    if slack is None:
        reason = "no finite estimate for at least one term"
    elif witness.length > max_len:
        reason = f"product witness needs {witness.length} bits > max_len"
    return SubadditivityReport(
        p_x, p_y, n, max_len, joint, cond, uncond_y, fidelity(x, y),
        witness.length, reason == "ok", reason, slack,
    )


# ---------------------------------------------------------------------------
# Superposed-bit worked example
# ---------------------------------------------------------------------------

@dataclass
class SuperposedBitReport:
    n: int
    bits: str
    position: int
    rotated: ExactEstimate
    classical: ExactEstimate
    constructive: Program
    basis_code_lengths: list
    note: str


def superposed_bit_example(
    n: int,
    max_len: int,
    bits: Optional[str] = None,
    position: int = 0,
    cache_dir=None,
) -> SuperposedBitReport:
    """Take a classical string and rotate one of its qubits into superposition,
    then report how the estimate decomposes into program bits and penalty bits.

    An exactly equal-weight split (amplitude 1/sqrt 2) is not Gaussian
    rational, so the machine's 3/5-4/5 rotation stands in for it.
    """
    if bits is None:
        bits = "0" * n
    if len(bits) != n:
        raise ValueError("bit string length must equal n")
    base = classical_state(bits)
    target = apply_gate(base, ROT(position))
    table = candidate_table(n, max_len, cache_dir=cache_dir)
    rotated = exact_estimate(target, table)
    classical = exact_estimate(base, table)
    x_gates = [X(j) for j in range(n) if bits[j] == "1"]
    constructive = encode(x_gates + [ROT(position)], n)
    lengths = shannon_fano_lengths(standard_basis(n), target)
    note = (
        "amplitude 1/sqrt(2) is not Gaussian rational; the 3/5,4/5 rotation "
        "stands in for an equal-weight superposition"
    )
    return SuperposedBitReport(
        n, bits, position, rotated, classical, constructive, lengths, note
    )
