"""The complexity functional: exact minimization of program length plus
redescription penalty over the enumeration, the sampled (measurement-driven)
approximation, the Chernoff-style trial planner, and the pigeonhole
upper-bound witness.

Both estimation modes are anytime procedures: the running minimum only ever
decreases as more programs are processed, so stopping early gives a sound
upper bound.  Every minimizing scan also stops by itself once the bound is
settled: rows come in (length, value) order and no row scores below its
length, so the first row whose length reaches the running minimum, and every
row after it, can no longer win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Iterable, Optional

from .executor import CandidateTable, candidate_table
from .proglang import DecodedProgram, Program, encode
from .statevec import StateVector, X, fidelity, inner_product, penalty_bits

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
    smaller one; since enumeration is ordered that way, the first program to
    reach the minimum is the winner.  If nothing has positive fidelity the
    result carries best=None: no finite estimate at this bound.  `outputs` is
    the candidate table to score (built here if None).

    The scan stops at the first row with length >= the best total.  That is
    exact: the row's total is its length plus a penalty of at least 0, and a
    tie on the total goes to the best record, whose (length, value) is
    smaller than that of this and every later row.  `scanned` still counts
    the whole table.
    """
    _check_target(target, n)
    table = _table(outputs, n, max_len, conditional)
    best = None
    best_key = None
    trace: list[tuple[int, int]] = []
    for idx, prog, out in table.firsts:
        if best is not None and prog.length >= best.total:
            break
        q = fidelity(target, out)
        if q == 0:
            continue
        pen = penalty_bits(q)
        total = prog.length + pen
        key = (total, prog.length, prog.value)
        if best_key is None or key < best_key:
            best_key = key
            best = EstimateRecord(prog, prog.length, q, pen, total)
            trace.append((idx, total))
    return ExactEstimate(best, trace, table.scanned, n, max_len)


def ideal_value(
    target: StateVector,
    n: int,
    max_len: int,
    outputs: Optional[CandidateTable] = None,
) -> Optional[float]:
    """min over halting programs of length - log2(true fidelity): the
    real-valued floor that the sampled mode approximates from above.

    The scan stops at the first row with length >= the best value, which is
    exact: fidelity is at most 1, so no row's value is below its length, and
    only a strictly smaller value replaces the best.
    """
    _check_target(target, n)
    best = None
    for _idx, prog, out in _table(outputs, n, max_len).firsts:
        if best is not None and prog.length >= best:
            break
        q = fidelity(target, out)
        if q == 0:
            continue
        value = prog.length - math.log2(q)
        if best is None or value < best:
            best = value
    return best


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


def bernoulli(q: Fraction, rng: Random) -> bool:
    """Exact Bernoulli(q): no float round-off in the success probability."""
    return rng.randrange(q.denominator) < q.numerator


def projection_oracle(target: StateVector) -> Callable:
    """Simulated projection measurement onto the target: each trial succeeds
    with probability fidelity(target, output), exactly."""

    def measure(program: Program, output: StateVector, rng: Random) -> bool:
        # inner_product runs on the integer overlap kernel that `fidelity`
        # shares, and |<x|z>|^2 is the same reduced Fraction either way, so
        # the draws are those of the Fraction sum over amps.  With the kernel
        # the sampled benchmark (40 s runs, 2 cores) went from 1.07 to 9.71
        # targets/s and its peak_rss_mb from 25.55 to 28.05 MB (+9.8%).  A
        # `fidelity` oracle or a per-output memo is faster still, past 27
        # targets/s, but the benchmark retains every op's report, so the
        # extra ops would raise peak_rss_mb past its 0.2 bound; both wait
        # for that to end (ROADMAP items 1, 4).
        return bernoulli(inner_product(target, output).abs2(), rng)

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
    other candidates run.
    Candidates with m == 0 are skipped: their fidelity may be zero and they
    can claim nothing.  Ties on the estimate go to the shorter program, then
    the smaller one.

    The scan stops at the first candidate with length >= the best estimate.
    That is exact: m <= k and epsilon > 0 give m / ((1+epsilon) k) <= 1, also
    in floating point, so no estimate is below its length, and a tie goes to
    the best, whose (length, value) is smaller.  Skipping the remaining
    candidates leaves every evaluated candidate's draws unchanged.
    """
    candidates = list(candidates)
    keys = [(prog.length, prog.value) for _idx, prog, _out in candidates]
    if keys != sorted(keys):
        raise ValueError("run_trials needs its candidates in (length, value) order")
    best = None
    best_key = None
    trace: list[tuple[int, float]] = []
    for idx, prog, out in candidates:
        if best is not None and prog.length >= best.estimate:
            break
        rng = trial_rng(seed, idx)
        m = sum(1 for _ in range(k) if measure(prog, out, rng))
        if m == 0:
            continue
        est = prog.length - math.log2(m / ((1.0 + epsilon) * k))
        key = (est, prog.length, prog.value)
        if best_key is None or key < best_key:
            best_key = key
            best = TrialResult(prog, m, k, epsilon, est)
            trace.append((idx, est))
    return best, trace


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
