"""The complexity functional: exact minimization of program length plus
redescription penalty over the enumeration, the sampled (measurement-driven)
approximation, the Chernoff-style trial planner, and the pigeonhole
upper-bound witness.

Both estimation modes are anytime procedures: the running minimum only ever
decreases as more programs are processed, so stopping early gives a sound
upper bound.  Every minimizing scan is that one running minimum,
`_running_min`, with its own score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Iterable, Optional

from .executor import CandidateTable, _build
from .proglang import Program, encode
from .statevec import StateVector, X, fidelity_to, penalty_bits

LOG2_E = math.log2(math.e)


@dataclass(frozen=True)
class EstimateRecord:
    """One candidate description of the target."""

    program: Program
    length: int
    fidelity: Fraction
    penalty: int
    total: int


@dataclass
class ExactEstimate:
    best: Optional[EstimateRecord]
    trace: list[tuple[int, int]]  # (enumeration index, running-min total)
    scanned: int
    n: int
    max_len: int

    @property
    def total(self) -> Optional[int]:
        return self.best.total if self.best else None


def _check_target(target: StateVector, n: int) -> None:
    if target.n_qubits != n:
        raise ValueError(f"target has {target.n_qubits} qubits, expected {n}")


def _running_min(rows, score):
    """The running minimum of `score` over rows in (length, value) order.

    `score(idx, prog, out)` is ((num, den), value, record) for a row, or None
    for a row that can claim nothing, with num / den = 2^value exactly.  The
    scan compares only those integer pairs, so no float round-off decides.
    Returns the record of the least value (None if no row scores) and the
    trace of each (index, value) that lowered it.

    Only a strictly smaller value replaces the best, so of rows that tie the
    earliest, the one with the smallest (length, value), wins.  No row's
    value is below its length, so the scan stops at the first row whose
    length reaches the best value, 2^length >= num / den: that row and every
    later one can at most tie, and a tie keeps the best.  The stop is exact,
    and every row read before it is scored as in a full scan.
    """
    best = record = None  # best: the (num, den) of the least value so far
    trace: list = []
    for idx, prog, out in rows:
        if best is not None and best[1] << prog.length >= best[0]:
            break
        scored = score(idx, prog, out)
        if scored is not None and (best is None or scored[0][0] * best[1] < best[0] * scored[0][1]):
            best, value, record = scored
            trace.append((idx, value))
    return record, trace


def exact_estimate(target: StateVector, table: CandidateTable) -> ExactEstimate:
    """Minimize length + penalty over the table's programs: every halting
    program up to its max_len, run with its conditional.

    Candidates with zero fidelity contribute nothing (their penalty is
    infinite).  Ties go to the shorter program, then to the numerically
    smaller one.  If nothing has positive fidelity the result carries
    best=None: no finite estimate at this bound.  `n`, `max_len` and
    `scanned` come from the table; `scanned` counts the whole table, though
    the scan stops early as `_running_min` says.
    """
    _check_target(target, table.n)
    fid = fidelity_to(target)

    def score(_idx, prog, out):
        num, den = fid(out)
        if not num:
            return None
        q = Fraction(num, den)
        pen = penalty_bits(q)
        total = prog.length + pen
        return (1 << total, 1), total, EstimateRecord(prog, prog.length, q, pen, total)

    best, trace = _running_min(table.firsts, score)
    return ExactEstimate(best, trace, table.scanned, table.n, table.max_len)


def ideal_value(
    target: StateVector, n: int, max_len: int, outputs: CandidateTable
) -> Optional[float]:
    """min over halting programs of length - log2(true fidelity): the
    real-valued floor that the sampled mode approximates from above.
    Fidelity is at most 1, so no value is below its length.  `outputs` must
    be the table for (n, max_len) with no conditional."""
    outputs.check(n, max_len)
    _check_target(target, n)
    fid = fidelity_to(target)

    def score(_idx, prog, out):
        num, den = fid(out)
        if not num:
            return None
        value = prog.length - math.log2(num / den)  # the float of Fraction(num, den)
        return (den << prog.length, num), value, value

    return _running_min(outputs.firsts, score)[0]


def shortest_exact_program(target: StateVector, table: CandidateTable) -> Optional[Program]:
    """Shortest program of the table whose output equals the target
    amplitude-for-amplitude (not merely up to phase); None if there is none."""
    _check_target(target, table.n)
    for _idx, prog, out in table.firsts:
        if out == target:
            return prog
    return None


def upper_bound_witness(target: StateVector, n: int) -> tuple[Program, EstimateRecord]:
    """Pigeonhole witness: the basis probabilities sum to 1 over 2^n vectors,
    so some computational-basis vector has fidelity >= 2^-n.  The X-gate
    program preparing it therefore costs at most its own length plus n penalty
    bits."""
    _check_target(target, n)
    v = target._v
    # basis probability i is weights[i] / D^2, so the weights order them
    weights = [v[k] * v[k] + v[k + 1] * v[k + 1] for k in range(0, len(v), 2)]
    i_best = 0
    for i in range(1, len(weights)):
        if weights[i] > weights[i_best]:  # ties keep the smallest index
            i_best = i
    gates = [X(j) for j in range(n) if (i_best >> (n - 1 - j)) & 1]
    prog = encode(gates, n)
    q = Fraction(weights[i_best], target._d * target._d)
    pen = penalty_bits(q)
    record = EstimateRecord(prog, prog.length, q, pen, prog.length + pen)
    return prog, record


# ---------------------------------------------------------------------------
# Sampled mode
# ---------------------------------------------------------------------------

def k_from_bound(n: int, alpha: float, epsilon: float, slack: float = 0.0) -> int:
    """Trials per candidate so that, with probability at least 1 - alpha, no
    candidate's success frequency strays from its mean by a relative factor
    epsilon: ceil(6 * (2n - log2 alpha + slack) / (epsilon^2 * log2 e)).

    The union bound behind this counts at most 2^(2n) candidates.  The
    additive constant is taken as zero by default; pass `slack` to budget for
    one explicitly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 0 < epsilon < 0.5:
        raise ValueError(f"epsilon must be in (0, 1/2), got {epsilon}")
    if not 0 <= slack < math.inf:
        raise ValueError(f"slack must be finite and nonnegative, got {slack}")
    try:
        k = 6.0 * (2 * n - math.log2(alpha) + slack) / (epsilon**2 * LOG2_E)
    except (OverflowError, ZeroDivisionError):  # epsilon**2 can underflow to 0
        k = math.inf
    if not math.isfinite(k):
        raise ValueError(
            f"k is not a finite integer for n={n}, alpha={alpha}, "
            f"epsilon={epsilon}, slack={slack}"
        )
    return max(1, math.ceil(k))


@dataclass(frozen=True)
class SamplingPlan:
    """(alpha, epsilon, k) for the sampled estimator."""

    alpha: float
    epsilon: float
    k: int

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 1/2), got {self.epsilon}")
        if self.k < 1:
            raise ValueError("k must be a positive integer")

    def covers(self, n: int) -> bool:
        return self.k >= k_from_bound(n, self.alpha, self.epsilon)

    @classmethod
    def for_dimension(cls, n: int, alpha: float, epsilon: float) -> "SamplingPlan":
        return cls(alpha, epsilon, k_from_bound(n, alpha, epsilon))


@dataclass(frozen=True)
class TrialResult:
    program: Program
    m: int
    k: int
    epsilon: float
    estimate: float  # length - log2(m / ((1 + epsilon) k)); needs m > 0


def bernoulli(num: int, den: int, rng: Random) -> bool:
    """Exact Bernoulli(num / den): one draw of randrange(den) < num, with no
    float round-off in the success probability.  Raises ValueError unless
    den >= 1 and 0 <= num <= den: any other pair is no probability, and its
    draws would be always true or always false."""
    if den < 1 or not 0 <= num <= den:
        raise ValueError(f"not a probability: {num}/{den}")
    return rng.randrange(den) < num


def projection_oracle(target: StateVector) -> Callable:
    """Simulated projection measurement onto the target: each trial succeeds
    with probability fidelity(target, output), exactly.  The target is bound
    to `fidelity_to` once, and each trial draws on its reduced integer pair,
    so no trial builds a Fraction."""
    fid = fidelity_to(target)

    def measure(program: Program, output: StateVector, rng: Random) -> bool:
        # den is the reduced Fraction's denominator, so every randrange
        # call, and so every draw, is the one that Fraction gave.  Running a
        # row's k trials in one call, or a per-output memo, would be faster
        # still (ROADMAP item 7), but the sampled benchmark keeps every op's
        # report (about 5 KB each), so its peak_rss_mb rises with throughput
        # alone: this oracle reads 71 targets/s at 40.3 MB (40 s runs, 2
        # cores), and the 0.2 bound over that is crossed near 1.5x its
        # rate.  Those wait for ROADMAP item 1a.
        return bernoulli(*fid(output), rng)

    return measure


def trial_rng(seed: int, index: int) -> Random:
    # String seeds hash through sha512 in CPython, stable across platforms.
    return Random(f"{seed}:{index}")


def _run_trials(
    rows: Iterable[tuple[int, Program, StateVector]],
    measure: Callable,
    k: int,
    epsilon: float,
    seed: int,
) -> tuple[Optional[TrialResult], list[tuple[int, float]]]:
    """k Bernoulli trials per row; running minimum of
    length - log2(m / ((1+epsilon) k)).

    Rows must come in (length, value) order, as `_build` gives them: the
    first row out of order that the scan reads raises ValueError before its
    trials run.  Each row's randomness is seeded from (seed, its enumeration
    index), so its outcome does not depend on which other rows run, and the
    early stop of `_running_min` leaves every evaluated row's draws
    unchanged.  Rows with m == 0 are skipped: they can claim nothing.  The
    scan compares 2^estimate = (1 + epsilon) k 2^length / m exactly, so ties
    go to the shorter program, then the smaller one; m <= k and epsilon > 0
    keep it at least 2^length.
    """
    e_num, e_den = epsilon.as_integer_ratio()
    last = (-1, -1)

    def score(idx, prog, out):
        nonlocal last
        key = (prog.length, prog.value)
        if key < last:
            raise ValueError("the sampled trials need their rows in (length, value) order")
        last = key
        rng = trial_rng(seed, idx)
        m = sum(1 for _ in range(k) if measure(prog, out, rng))
        if m == 0:
            return None
        est = prog.length - math.log2(m / ((1.0 + epsilon) * k))
        exact = ((e_den + e_num) * k << prog.length, m * e_den)
        return exact, est, TrialResult(prog, m, k, epsilon, est)

    return _running_min(rows, score)


@dataclass
class SampledEstimate:
    best: Optional[TrialResult]
    trace: list[tuple[int, float]]
    plan: SamplingPlan
    seed: int
    n: int
    max_len: int

    @property
    def estimate(self) -> Optional[float]:
        return self.best.estimate if self.best else None


def sampled_estimate(
    measure: Callable,
    n: int,
    plan: SamplingPlan,
    max_len: int,
    seed: int,
) -> SampledEstimate:
    """Approximation from above driven only by a Bernoulli oracle per program.

    Runs plan.k measurement trials against each row of the build's stream,
    equal outputs included (each row has its own trial stream), and keeps the
    candidate with the smallest estimate (shorter program on ties).  It stops
    at the first row whose length reaches the best estimate, and the build
    stops there with it.  The plan must supply at least as many trials as
    k_from_bound requires for this n.
    """
    if not plan.covers(n):
        raise ValueError(
            f"plan.k={plan.k} is below k_from_bound(n={n}, alpha={plan.alpha}, "
            f"epsilon={plan.epsilon})={k_from_bound(n, plan.alpha, plan.epsilon)}"
        )
    rows = (row for row, _first in _build(n, max_len))
    best, trace = _run_trials(rows, measure, plan.k, plan.epsilon, seed)
    return SampledEstimate(best, trace, plan, seed, n, max_len)
