"""Independent brute-force oracles the tests check the fast paths against.

These deliberately avoid the library's enumerator and estimator logic: they
scan raw bit strings and minimize by hand, so agreement is evidence rather
than tautology.  The reference_* scans are the exception: they keep the
enumerate-then-simulate path every estimator ran on its own before the
candidate table, as the reference the table path must reproduce exactly.
They read every row to the end, with no early exit, so they also check that
the scans' stopping rule is exact.  reference_decode_prefix keeps the
per-opcode decoder that the alphabet lookup in `decode` replaced,
reference_enumerate the build-then-sort enumerator that the streaming one
replaced, reference_firsts the value-keyed scan that `CandidateTable.firsts`
replaced, reference_norm_sq the Fraction sum that the integer unit-norm
check replaced,
reference_apply_gate the Fraction simulator that the integer gate kernel
replaced, reference_inner_product the Fraction overlap that the integer
overlap kernel `fidelity_to` replaced,
reference_random_state the Fraction Givens chain that the integer one in
`random_state` replaced, and reference_penalty_bits the count-up search that
the closed form in `penalty_bits` must match.
reference_fidelity is its squared modulus; every scan here scores with it,
and reference_projection_oracle draws its trials on it.
The Fraction references do their complex arithmetic with the c_* helpers on
(re, im) pairs of Fractions, and ROT_COS, ROT_SIN are the ROT gate's entries:
the library itself keeps no such arithmetic.
gr builds a GaussianRational from exact values: the library itself builds
that type only for `amps`.
Counted wraps a function to count its calls, and CountedKernel counts the
calls of every kernel that `fidelity_to` binds, for the tests that check how
much work a path does.  check_estimates checks exact estimates by properties
that need no reference scan (a re-derived best record, the trace, the
pigeonhole witness and symmetry under relabelling qubits), so it scales past
the bounds the reference scans can reach; check_prefix_property and
check_monotone_in_the_bound check how the tables and estimates at two bounds
relate, which needs no reference scan either.
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
    exact_estimate,
    penalty_bits,
    run,
    upper_bound_witness,
    zero_state,
)
from qkclab.estimator import trial_rng
from qkclab.proglang import OPCODE_WIDTH, gamma_encode, index_width
from qkclab.statevec import _frac, _mask

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


def gr(re=0, im=0):
    """A GaussianRational from ints, Fractions or rational strings; a float
    is refused with TypeError."""
    return GaussianRational(_frac(re), _frac(im))


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
    """Every decodable bit string up to max_len, by exhaustive scan with
    reference_decode_prefix, so it shares no code with `decode`."""
    found = []
    for length in range(1, max_len + 1):
        for v in range(1 << length):
            bits = format(v, f"0{length}b")
            parsed = reference_decode_prefix(bits, n)
            if parsed is not None and parsed[1] == length:
                found.append(bits)
    return found


def reference_enumerate(max_len, n):
    """(program, gates) for every decodable program up to max_len: every
    gate sequence that fits, built one gate count at a time, then the whole
    list sorted by (length, value).  The enumerator that the streaming
    `enumerate_decoded` replaced."""
    alphabet = reference_op_fields(n)

    def sequences(k, budget):
        if k == 0:
            yield "", ()
            return
        for bits, op in alphabet:
            rest = budget - len(bits)
            if rest < OPCODE_WIDTH * (k - 1):
                continue
            for tail, ops in sequences(k - 1, rest):
                yield bits + tail, (op,) + ops

    programs = []
    k = 0
    while True:
        header = gamma_encode(k + 1)
        if len(header) + OPCODE_WIDTH * k > max_len:
            break
        for body, gates in sequences(k, max_len - len(header)):
            programs.append((Program(header + body), gates))
        k += 1
    programs.sort(key=lambda pg: (pg[0].length, pg[0].value))
    return programs


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
    """The value of the row with the least 2^value = 2^length / q, compared
    as a Fraction, so the earliest of rows that tie exactly wins."""
    best = best_key = None
    for _idx, prog, out in reference_candidates(n, max_len, outputs=outputs):
        q = reference_fidelity(target, out)
        if q == 0:
            continue
        key = (Fraction(1 << prog.length) / q, prog.length, prog.value)
        if best_key is None or key < best_key:
            best_key, best = key, prog.length - math.log2(q)
    return best


def reference_shortest_exact_program(target, n, max_len, outputs=None):
    for _idx, prog, out in reference_candidates(n, max_len, outputs=outputs):
        if out.amps == target.amps:
            return prog
    return None


def permute_qubits(state, perm):
    """The state with the value of each qubit q moved to qubit perm[q]."""
    n = state.n_qubits
    amps = [None] * state.dim
    for i, amp in enumerate(parts(state)):
        amps[sum(_mask(n, perm[q]) for q in range(n) if i & _mask(n, q))] = amp
    return state_of_parts(n, amps)


def check_estimates(targets, estimates, table):
    """Checks of each exact estimate against its target and the table (with
    no conditional) it was scored on, that need no reference scan, so they
    hold at bounds too large for one.  Raises AssertionError naming each
    check that failed, with the position of its first failing target:

    - "record": the best record, re-derived through `decode`,
      reference_apply_gate, reference_fidelity and reference_penalty_bits,
      has the same fidelity, penalty and total;
    - "trace": the trace strictly decreases and ends at the best total;
    - "witness": the total is at most the `upper_bound_witness` total when
      that program fits in max_len;
    - "permutation": the total is the same for the target with its qubits
      transposed (0 1) and cycled (0 1 ... n-1), which generate every
      permutation.  Relabelling qubits maps the machine's programs onto
      programs of the same length, so it cannot change a total.
    """
    n, failed = table.n, {}
    perms = [(1, 0, *range(2, n)), (*range(1, n), 0)] if n > 1 else []
    for i, (target, est) in enumerate(zip(targets, estimates, strict=True)):
        best, totals = est.best, [total for _idx, total in est.trace]
        checks = {
            "record": best is None,
            "trace": totals == sorted(set(totals), reverse=True)
            and totals[-1:] == ([best.total] if best else []),
        }
        decoded = best and decode(best.program.bits, n, allow_callc=False)
        if decoded:
            out = zero_state(n)
            for gate in decoded.gates:
                out = reference_apply_gate(out, gate)
            q = reference_fidelity(target, out)
            pen = reference_penalty_bits(q.numerator, q.denominator)
            length = best.program.length
            checks["record"] = (best.length, best.fidelity, best.penalty, best.total) == (
                length, q, pen, length + pen
            )
        witness, record = upper_bound_witness(target, n)
        checks["witness"] = witness.length > table.max_len or (
            best is not None and best.total <= record.total
        )
        checks["permutation"] = all(
            exact_estimate(permute_qubits(target, p), table).total == est.total for p in perms
        )
        for name, ok in checks.items():
            if not ok:
                failed.setdefault(name, i)
    assert not failed, f"failed checks, with their first target: {failed}"


def check_prefix_property(short, long):
    """ROADMAP item 3's prefix property: the firsts of the table for bound L
    (`short`) are the firsts of the table for a bound L' >= L (`long`) with
    length <= L, with the same indices, programs and outputs, in order.
    Enumeration runs by length, so the programs up to L, their indices and
    their outputs come first at every bound.  Raises AssertionError naming
    the first row where they differ."""
    assert (short.n, short.conditional) == (long.n, long.conditional)
    assert short.max_len <= long.max_len
    kept = tuple(row for row in long.firsts if row[1].length <= short.max_len)
    if short.firsts != kept:
        pairs = enumerate(zip(short.firsts, kept))
        i = next((i for i, (a, b) in pairs if a != b), min(len(short.firsts), len(kept)))
        raise AssertionError(
            f"the firsts at L={short.max_len} and L'={long.max_len} differ from row {i}"
        )


def check_monotone_in_the_bound(targets, short, long):
    """Exact estimates against the tables for bounds L (`short`) and
    L' >= L (`long`).  Raises AssertionError naming each check that failed,
    with the position of its first failing target:

    - "monotone": the total at L' is at most the total at L, since a larger
      bound only adds programs;
    - "settled": when the total T at L is at most L + 1, the estimate at L'
      has the same best record and trace (ROADMAP item 6's rule): the
      firsts up to L are the same, and every later one is at least L + 1
      bits long, so it can at most tie T, and a tie keeps the best.
    """
    assert short.max_len <= long.max_len
    failed = {}
    for i, target in enumerate(targets):
        at_l, at_l2 = exact_estimate(target, short), exact_estimate(target, long)
        checks = {
            "monotone": at_l.total is None
            or (at_l2.total is not None and at_l2.total <= at_l.total),
            "settled": at_l.total is None
            or at_l.total > short.max_len + 1
            or (at_l2.best, at_l2.trace) == (at_l.best, at_l.trace),
        }
        for name, ok in checks.items():
            if not ok:
                failed.setdefault(name, i)
    assert not failed, f"failed checks, with their first target: {failed}"


def reference_run_trials(candidates, measure, k, epsilon, seed):
    """(best, trace) of k trials against every candidate, none skipped.  Rows
    compare by 2^estimate = (1 + epsilon) k 2^length / m as a Fraction, so
    the earliest of rows that tie exactly wins."""
    e = Fraction(epsilon)
    best = best_key = None
    trace = []
    for idx, prog, out in candidates:
        rng = trial_rng(seed, idx)
        m = sum(1 for _ in range(k) if measure(prog, out, rng))
        if m == 0:
            continue
        est = prog.length - math.log2(m / ((1.0 + epsilon) * k))
        key = ((1 + e) * k * (1 << prog.length) / m, prog.length, prog.value)
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


class CountedKernel:
    """`fidelity_to` wrapped to count its bindings (`binds`), the calls of
    every kernel it binds (`calls`), and the calls that scored a positive
    fidelity (`positive`)."""

    def __init__(self, fidelity_to):
        self.fidelity_to = fidelity_to
        self.binds = self.calls = self.positive = 0

    def __call__(self, x):
        self.binds += 1
        pair = self.fidelity_to(x)

        def counted(z):
            self.calls += 1
            num, den = pair(z)
            self.positive += num > 0
            return num, den

        return counted


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
