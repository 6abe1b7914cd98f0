"""Independent brute-force oracles the tests check the fast paths against.

These deliberately avoid the library's enumerator and estimator logic: they
scan raw bit strings and minimize by hand, so agreement is evidence rather
than tautology.  The reference_* scans are the exception: they keep the
enumerate-then-simulate path every estimator ran on its own before the
candidate table, as the reference the table path must reproduce exactly.
They read every row to the end, with no early exit, so they also check that
the scans' stopping rule is exact.  reference_decode_prefix keeps the
per-opcode decoder that the table-driven one replaced, reference_firsts the
value-keyed scan that `CandidateTable.firsts` replaced, reference_norm_sq
the Fraction sum that the integer unit-norm check replaced,
reference_apply_gate the Fraction simulator that the integer gate kernel
replaced, reference_inner_product the Fraction overlap that the integer
overlap kernel behind `inner_product` and `fidelity` replaced,
reference_random_state the Fraction Givens chain that the integer one in
`random_state` replaced, and reference_penalty_bits the count-up search that
the closed form in `penalty_bits` must match.
reference_fidelity is its squared modulus; every scan here scores with it,
and reference_projection_oracle draws its trials on it.
The Fraction references do their complex arithmetic with the c_* helpers on
(re, im) pairs of Fractions, and ROT_COS, ROT_SIN are the ROT gate's entries:
the library itself keeps no such arithmetic.
Counted wraps a function to count its calls, for the tests that check how
much work a path does.
"""

import math
from fractions import Fraction
from random import Random

from qkclab import (
    CALLC,
    CNOT,
    DecodedProgram,
    PHASE,
    ROT,
    X,
    EstimateRecord,
    GaussianRational,
    Program,
    StateVector,
    TrialResult,
    decode,
    enumerate_programs,
    penalty_bits,
    run,
)
from qkclab.estimator import trial_rng
from qkclab.proglang import index_width
from qkclab.statevec import _mask

ROT_COS = Fraction(3, 5)
ROT_SIN = Fraction(4, 5)


# Complex arithmetic on (re, im) pairs of Fractions.

def c_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def c_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def c_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def c_neg(x):
    return -x[0], -x[1]


def c_scale(x, f):
    return x[0] * f, x[1] * f


def c_conj(x):
    return x[0], -x[1]


def c_times_i(x):
    return -x[1], x[0]


def c_abs2(x):
    return x[0] * x[0] + x[1] * x[1]


def parts(state):
    """A state's amps as (re, im) pairs."""
    return [(a.re, a.im) for a in state.amps]


def state_of_parts(n, pairs):
    """The state on n qubits with amplitudes (re, im) pairs, through the
    public constructor, so its unit-norm check applies."""
    return StateVector(n, tuple(GaussianRational(*p) for p in pairs))


def reference_inner_product(x, z):
    """<x|z> summed in Fraction arithmetic over the two states' amps: the
    path that the integer overlap kernel replaced."""
    if x.n_qubits != z.n_qubits:
        raise ValueError("dimension mismatch")
    acc = (Fraction(0), Fraction(0))
    for a, b in zip(parts(x), parts(z)):
        acc = c_add(acc, c_mul(c_conj(a), b))
    return GaussianRational(*acc)


def reference_penalty_bits(num, den):
    """The least d >= 0 with num * 2^d >= den, counted up one at a time."""
    d = 0
    while (num << d) < den:
        d += 1
    return d


def reference_fidelity(x, z):
    """|<x|z>|^2 from reference_inner_product, so it shares nothing with the
    integer kernel."""
    p = reference_inner_product(x, z)
    return c_abs2((p.re, p.im))


def reference_projection_oracle(target):
    """`projection_oracle` on reference_fidelity: each trial draws
    randrange(den) < num on the Fraction-path |<target|output>|^2."""

    def measure(program, output, rng):
        q = reference_fidelity(target, output)
        return rng.randrange(q.denominator) < q.numerator

    return measure


def brute_force_decodables(max_len, n):
    """Every decodable bit string up to max_len, by exhaustive scan."""
    found = []
    for length in range(1, max_len + 1):
        for v in range(1 << length):
            bits = format(v, f"0{length}b")
            if decode(bits, n) is not None:
                found.append(bits)
    return found


def brute_force_best(target, n, max_len, conditional=None):
    """Minimum of length + penalty over all decodable strings, scanned raw.

    Returns (total, bits) or None.  Ties resolved by (total, length, value),
    matching the estimator's contract.
    """
    best = None
    for length in range(1, max_len + 1):
        for v in range(1 << length):
            bits = format(v, f"0{length}b")
            output = run(Program(bits), n, conditional)
            if output is None:
                continue
            q = reference_fidelity(target, output)
            if q == 0:
                continue
            total = length + penalty_bits(q)
            key = (total, length, v)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    total, length, v = best
    return total, format(v, f"0{length}b")


def reference_candidates(n, max_len, conditional=None, outputs=None):
    """(index, program, output) for every halting program, in enumeration
    order.  `outputs` is an optional {program: output} dict of outputs with no
    conditional; programs missing from it are simulated fresh."""
    for idx, prog in enumerate(enumerate_programs(max_len, n)):
        if outputs is not None and prog in outputs:
            yield idx, prog, outputs[prog]
            continue
        output = run(prog, n, conditional)
        if output is not None:
            yield idx, prog, output


def reference_firsts(rows):
    """The first row of each distinct output value, in row order: what a
    table's `firsts` must be, found by comparing states rather than by the
    table's own identity of shared outputs."""
    first = {}
    for row in rows:
        first.setdefault(row[2], row)
    return tuple(first.values())


def reference_outputs(n, max_len):
    """{program: output} of every program that halts with no conditional."""
    return {prog: out for _idx, prog, out in reference_candidates(n, max_len)}


def reference_exact_estimate(target, n, max_len, conditional=None, outputs=None):
    """(best, trace, scanned) of the minimization over every halting program."""
    best = best_key = None
    trace = []
    scanned = 0
    for idx, prog, out in reference_candidates(n, max_len, conditional, outputs):
        scanned = idx + 1
        q = reference_fidelity(target, out)
        if q == 0:
            continue
        pen = penalty_bits(q)
        total = prog.length + pen
        key = (total, prog.length, prog.value)
        if best_key is None or key < best_key:
            best_key = key
            best = EstimateRecord(prog, prog.length, q, pen, total)
            trace.append((idx, total))
    return best, trace, scanned


def reference_ideal_value(target, n, max_len, outputs=None):
    best = None
    for _idx, prog, out in reference_candidates(n, max_len, outputs=outputs):
        q = reference_fidelity(target, out)
        if q == 0:
            continue
        value = prog.length - math.log2(q)
        if best is None or value < best:
            best = value
    return best


def reference_directly_computable(target, n, max_len, outputs=None):
    candidates = reference_candidates(n, max_len, outputs=outputs)
    return any(
        reference_fidelity(target, out) == 1 for _idx, _prog, out in candidates
    )


def reference_shortest_exact_program(target, n, max_len, outputs=None):
    for _idx, prog, out in reference_candidates(n, max_len, outputs=outputs):
        if out.amps == target.amps:
            return prog
    return None


def reference_run_trials(candidates, measure, k, epsilon, seed):
    """(best, trace) of k trials against every candidate, none skipped."""
    best = best_key = None
    trace = []
    for idx, prog, out in candidates:
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


def reference_sampled_estimate(measure, n, plan, max_len, seed, outputs=None):
    """(best, trace) of plan.k trials against every halting program."""
    candidates = reference_candidates(n, max_len, outputs=outputs)
    return reference_run_trials(candidates, measure, plan.k, plan.epsilon, seed)


def reference_decode_prefix(bits, n, allow_callc=True):
    """One program from the front of `bits`, one branch per opcode: X 000,
    CNOT 001, ROT 010, PHASE 011, CALLC 100.  (program, bits consumed) or
    None."""
    z = 0
    while z < len(bits) and bits[z] == "0":
        z += 1
    if 2 * z + 1 > len(bits):
        return None
    count = int(bits[z : 2 * z + 1], 2) - 1
    pos = 2 * z + 1
    w = index_width(n)

    def read(width):
        nonlocal pos
        if pos + width > len(bits):
            return None
        val = int(bits[pos : pos + width], 2)
        pos += width
        return val

    gates = []
    for _ in range(count):
        opcode = read(3)
        if opcode is None:
            return None
        if opcode == 0b000:
            t = read(w)
            if t is None or t >= n:
                return None
            gates.append(X(t))
        elif opcode == 0b001:
            c = read(w)
            t = read(w)
            if c is None or t is None or c >= n or t >= n or c == t:
                return None
            gates.append(CNOT(c, t))
        elif opcode == 0b010:
            t = read(w)
            if t is None or t >= n:
                return None
            gates.append(ROT(t))
        elif opcode == 0b011:
            t = read(w)
            if t is None or t >= n:
                return None
            gates.append(PHASE(t))
        elif opcode == 0b100:
            if not allow_callc:
                return None
            gates.append(CALLC())
        else:
            return None
    return DecodedProgram(n, tuple(gates)), pos


def reference_op_fields(n):
    """(bits, op) for every op at width n, written out per opcode."""
    w = index_width(n)
    idx = lambda i: format(i, f"0{w}b")
    fields = [("000" + idx(t), X(t)) for t in range(n)]
    fields += [
        ("001" + idx(c) + idx(t), CNOT(c, t))
        for c in range(n) for t in range(n) if c != t
    ]
    fields += [("010" + idx(t), ROT(t)) for t in range(n)]
    fields += [("011" + idx(t), PHASE(t)) for t in range(n)]
    return fields + [("100", CALLC())]


def reference_norm_sq(amps):
    """Sum of |a|^2, one Fraction operation per term: the sum that the
    integer unit-norm check over one common denominator replaced."""
    return sum((c_abs2((a.re, a.im)) for a in amps), Fraction(0))


def reference_apply_gate(state, gate):
    """One gate step in Fraction arithmetic on the state's amps, one Fraction
    operation per amplitude part touched: the simulator that the integer
    kernel over one common denominator replaced."""
    n = state.n_qubits
    amps = parts(state)
    if isinstance(gate, X):
        m = _mask(n, gate.target)
        for i in range(state.dim):
            if not i & m:
                amps[i], amps[i | m] = amps[i | m], amps[i]
    elif isinstance(gate, ROT):
        m = _mask(n, gate.target)
        for i in range(state.dim):
            if not i & m:
                lo, hi = amps[i], amps[i | m]
                amps[i] = c_sub(c_scale(lo, ROT_COS), c_scale(hi, ROT_SIN))
                amps[i | m] = c_add(c_scale(lo, ROT_SIN), c_scale(hi, ROT_COS))
    elif isinstance(gate, PHASE):
        m = _mask(n, gate.target)
        for i in range(state.dim):
            if i & m:
                amps[i] = c_times_i(amps[i])
    elif isinstance(gate, CNOT):
        mc = _mask(n, gate.control)
        mt = _mask(n, gate.target)
        for i in range(state.dim):
            if i & mc and not i & mt:
                amps[i], amps[i | mt] = amps[i | mt], amps[i]
    else:
        raise TypeError(f"not a gate: {gate!r}")
    return state_of_parts(n, amps)


def _reference_pythagorean_rotation(rng):
    # (a/c, b/c) with a^2 + b^2 = c^2, so the Givens rotation is exactly unitary
    while True:
        m = rng.randrange(2, 12)
        k = rng.randrange(1, m)
        if (m - k) % 2 == 1 and math.gcd(m, k) == 1:
            a, b, c = m * m - k * k, 2 * m * k, m * m + k * k
            return Fraction(a, c), Fraction(b, c)


def reference_random_state(n, rng):
    """`random_state`'s Givens chain in Fraction arithmetic on amplitudes,
    with the same rng calls in the same order: the path that the integer
    chain replaced."""
    dim = 1 << n
    amps = [(Fraction(0), Fraction(0))] * dim
    amps[0] = (Fraction(1), Fraction(0))
    for _ in range(3 * dim):
        i, j = rng.sample(range(dim), 2)
        c, s = _reference_pythagorean_rotation(rng)
        ai, aj = amps[i], amps[j]
        amps[i] = c_sub(c_scale(ai, c), c_scale(aj, s))
        amps[j] = c_add(c_scale(ai, s), c_scale(aj, c))
        if rng.random() < 0.5:
            amps[i] = c_times_i(amps[i])
        if rng.random() < 0.25:
            amps[j] = c_neg(amps[j])
    return state_of_parts(n, amps)


class Counted:
    """A function wrapped to count its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def mat2_mul(a, b):
    """2x2 Fraction matrix product, for checking gate algebra by hand."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def random_gate(rng: Random, n: int):
    kind = rng.randrange(4)
    if kind == 0:
        return X(rng.randrange(n))
    if kind == 1 and n >= 2:
        c = rng.randrange(n)
        t = rng.randrange(n - 1)
        if t >= c:
            t += 1
        return CNOT(c, t)
    if kind == 2:
        return ROT(rng.randrange(n))
    return PHASE(rng.randrange(n))


def random_gate_list(rng: Random, n: int, max_gates: int, allow_callc=False):
    gates = []
    for _ in range(rng.randrange(max_gates + 1)):
        if allow_callc and rng.random() < 0.1:
            gates.append(CALLC())
        else:
            gates.append(random_gate(rng, n))
    return gates


def random_fraction(rng: Random, max_den: int = 64) -> Fraction:
    den = rng.randrange(1, max_den + 1)
    num = rng.randrange(0, den + 1)
    return Fraction(num, den)
