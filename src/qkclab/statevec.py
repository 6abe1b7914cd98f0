"""Exact state-vector substrate: Gaussian-rational amplitudes, the fixed gate
set, fidelity, and Shannon-Fano code lengths.

Amplitudes live in Q(i) -- complex numbers whose real and imaginary parts are
arbitrary-precision rationals -- so unit norm, orthogonality and outcome
probabilities are decided exactly. No function in this module performs
floating-point arithmetic on amplitudes.

A state holds its amplitudes in one integer form: Gaussian integers over a
common denominator D, the lattice form that exact synthesis uses over
Z[1/sqrt2, i] (Kliuchnikov, Maslov and Mosca, arXiv:1206.5236), with any D in
place of powers of sqrt2.  Gate steps, tensor products, `random_state`'s
rotations, the unit-norm check, equality, hashing, the JSON writer and the
one overlap kernel, `fidelity_to`, run on that form in plain ints.
`fidelity_to(x)` reads x's support once and scores any number of states
against it; `fidelity`, the `Basis` orthogonality check,
the Shannon-Fano codes and every scan of the estimator bind it.  State
files are read from their reduced Fraction parts straight into it.  The
Fraction-valued `amps` is kept when a state is built from amplitudes
(`StateVector(n, amps)`) and is otherwise built on first read, which in
this package only `repr` does.  `GaussianRational` is only the value type of `amps`: the
library does no arithmetic in it.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Union

# Distinguished "infinite" code length for zero-probability outcomes.  It is an
# ordinary value (not an error) so that enumeration loops can carry it along.
INFINITE = math.inf


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not allowed in amplitude arithmetic")
    return Fraction(x)


@dataclass(frozen=True)
class GaussianRational:
    """A complex number re + im*i with rational parts.

    Fraction keeps itself in lowest terms, so every value has a unique
    representation and ==/hash are exact.
    """

    re: Fraction
    im: Fraction

    def __str__(self) -> str:
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def _target_hash(gate) -> int:
    """The hash of a one-qubit gate: its class and its target.  The hash a
    frozen dataclass generates covers the fields alone, so X(q), ROT(q) and
    PHASE(q) would share hash((q,)), and a tuple of k such gates would share
    its hash with 3^k - 1 others in every dict keyed by gate tuples.  CNOT
    (two operands) and CALLC (none) collide with no other op."""
    return hash((gate.__class__, gate.target))


@dataclass(frozen=True)
class X:
    target: int

    __hash__ = _target_hash


@dataclass(frozen=True)
class CNOT:
    control: int
    target: int

    def __post_init__(self):
        if self.control == self.target:
            raise ValueError("CNOT control and target must differ")


@dataclass(frozen=True)
class ROT:
    """The single primitive rotation: cosine 3/5, sine 4/5."""

    target: int

    __hash__ = _target_hash


@dataclass(frozen=True)
class PHASE:
    """diag(1, i) on the target qubit."""

    target: int

    __hash__ = _target_hash


Gate = Union[X, CNOT, ROT, PHASE]


def operands(op) -> tuple[int, ...]:
    """An op's qubit operands: its dataclass fields in declaration order
    (which a dataclass lists as `__match_args__`)."""
    return tuple(map(op.__getattribute__, op.__match_args__))


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

def _reduced(v, d: int) -> tuple[tuple[int, ...], int]:
    """(v, d) with the gcd of d and every entry of v divided out."""
    g = math.gcd(d, *v)
    if g == 1:
        return tuple(v), d
    return tuple(x // g for x in v), d // g


def _lattice(parts) -> tuple[tuple[int, ...], int]:
    """The integer form (v, D) of the reduced rationals `parts`, the
    amplitude parts re, im for each amplitude in turn: D is the lcm of every
    part's denominator, and each part num/den is v[k] = num * (D/den) over D.
    The form is reduced: each prime power p^e of D is the p-part of some den,
    whose num p does not divide, and p does not divide D/den either."""
    pairs = [(x.numerator, x.denominator) for x in parts]
    d = math.lcm(*[den for _num, den in pairs])
    return tuple(num * (d // den) for num, den in pairs), d


_set = object.__setattr__


class StateVector:
    """Unit vector of 2^n_qubits Gaussian-rational amplitudes.

    Qubit 0 is the most significant bit of the amplitude index, so the
    amplitude of |b_0 b_1 ... b_{n-1}> sits at index int(b_0 b_1 ... b_{n-1}, 2).

    The state is held as (v, D): amplitude j is (v[2j] + v[2j+1] i) / D,
    with D > 0 and gcd(D, *v) == 1.  That form is unique, so == and hash
    compare it directly, and unit norm is sum(x*x for x in v) == D*D.
    `amps`, the tuple of GaussianRational, is built from it on first read
    and kept; `StateVector(n, amps)` builds a state from amplitudes.  A state
    is immutable: assigning to any attribute raises FrozenInstanceError.
    """

    __slots__ = ("n_qubits", "_v", "_d", "_amps")

    def __new__(cls, n_qubits: int, amps):
        amps = tuple(amps)
        try:
            return _from_parts(n_qubits, [x for a in amps for x in (a.re, a.im)], amps)
        except AttributeError:
            raise TypeError(f"amplitude parts must be exact rationals, got {amps!r}") from None

    @property
    def amps(self) -> tuple[GaussianRational, ...]:
        amps = self._amps
        if amps is None:
            v, d = self._v, self._d
            amps = tuple(
                GaussianRational(Fraction(v[k], d), Fraction(v[k + 1], d))
                for k in range(0, len(v), 2)
            )
            _set(self, "_amps", amps)
        return amps

    def norm_sq(self) -> Fraction:
        return Fraction(sum(x * x for x in self._v), self._d * self._d)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def __eq__(self, other):
        if other.__class__ is not StateVector:
            return NotImplemented
        return self.n_qubits == other.n_qubits and self._d == other._d and self._v == other._v

    def __hash__(self) -> int:
        return hash((self.n_qubits, self._d, self._v))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _from_lattice, (self.n_qubits, self._v, self._d)

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits!r}, amps={self.amps!r})"


def _from_parts(n: int, parts: list, amps=None) -> StateVector:
    """The state on n qubits whose amplitude parts, re and im for each
    amplitude in turn, are the reduced rationals `parts`: the size check,
    the lattice form, then `_from_lattice`."""
    if n < 1:
        raise ValueError("n_qubits must be a positive integer")
    # compare exponents: a huge n from a file builds no 1 << n
    size = len(parts) // 2
    if size & (size - 1) or size.bit_length() - 1 != n:
        raise ValueError(f"expected 2**{n} amplitudes, got {size}")
    return _from_lattice(n, *_lattice(parts), amps)


def _from_lattice(n: int, v: tuple, d: int, amps=None) -> StateVector:
    """The state on n qubits with integer form (v, d), which must already be
    reduced, after the exact unit-norm check.  `amps` are its amplitudes if
    the caller has them; otherwise they are built when first read."""
    if sum(x * x for x in v) != d * d:
        raise ValueError("state is not exactly unit norm")
    state = object.__new__(StateVector)
    _set(state, "n_qubits", n)
    _set(state, "_v", v)
    _set(state, "_d", d)
    _set(state, "_amps", amps)
    return state


def zero_state(n: int) -> StateVector:
    return basis_state(n, 0)


def basis_state(n: int, index: int) -> StateVector:
    if not 0 <= index < (1 << n):
        raise ValueError(f"basis index {index} out of range for n={n}")
    v = [0] * (2 << n)
    v[2 * index] = 1
    return _from_lattice(n, tuple(v), 1)


def classical_state(bits: str) -> StateVector:
    """The computational-basis state labelled by a classical bit string."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"not a bit string: {bits!r}")
    return basis_state(len(bits), int(bits, 2))


def _mask(n: int, qubit: int) -> int:
    # qubit 0 is the most significant index bit
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for n={n}")
    return 1 << (n - 1 - qubit)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Exact matrix action of one gate; the result is unit norm by unitarity.

    The step runs on the integer form (v, D).  Part k of v belongs to
    amplitude k >> 1, so a qubit's amplitude-index mask is mask << 1 on part
    indices.  X and CNOT permute parts and PHASE maps (re, im) to (-im, re),
    all over the same D.  ROT (cosine 3/5, sine 4/5) maps each pair (a, b) to
    (3a - 4b, 4a + 3b) over 5D, then divides out the common gcd.
    """
    n, v, d = state.n_qubits, list(state._v), state._d
    if isinstance(gate, X):
        m = _mask(n, gate.target) << 1
        for k in range(len(v)):
            if not k & m:
                v[k], v[k | m] = v[k | m], v[k]
    elif isinstance(gate, ROT):
        m = _mask(n, gate.target) << 1
        for k in range(len(v)):
            if not k & m:
                a, b = v[k], v[k | m]
                v[k], v[k | m] = 3 * a - 4 * b, 4 * a + 3 * b
        v, d = _reduced(v, 5 * d)
    elif isinstance(gate, PHASE):
        m = _mask(n, gate.target) << 1
        for k in range(0, len(v), 2):
            if k & m:
                v[k], v[k + 1] = -v[k + 1], v[k]
    elif isinstance(gate, CNOT):
        mc = _mask(n, gate.control) << 1
        mt = _mask(n, gate.target) << 1
        for k in range(len(v)):
            if k & mc and not k & mt:
                v[k], v[k | mt] = v[k | mt], v[k]
    else:
        raise TypeError(f"not a gate: {gate!r}")
    return _from_lattice(n, tuple(v), d)


def apply_circuit(state: StateVector, gates) -> StateVector:
    for g in gates:
        state = apply_gate(state, g)
    return state


def fidelity_to(x: StateVector) -> Callable[[StateVector], tuple[int, int]]:
    """z -> |<x|z>|^2 as the reduced pair (num, den), in plain ints, with x
    read once: the one overlap kernel.

    x's nonzero amplitude parts are taken from its integer form here, so
    each call loops over x's support only, however often x is scored.  Over
    it, each pair of parts (a, b) of x and (c, e) of z adds conj(a + bi)(c +
    ei) to the Gaussian integer <x|z> Dx Dz = re + im i, and the pair is
    (re^2 + im^2) / (Dx Dz)^2 with one gcd divided out: the numerator and
    denominator of the reduced Fraction that |<x|z>|^2 gives on `amps`, and
    (0, 1) for orthogonal states.  A call on a state of another width
    raises ValueError.  Neither state's `amps` is built.
    """
    n, xv, dx2 = x.n_qubits, x._v, x._d * x._d
    support = [(k, xv[k], xv[k + 1]) for k in range(0, len(xv), 2) if xv[k] or xv[k + 1]]

    def pair(z: StateVector) -> tuple[int, int]:
        if z.n_qubits != n:
            raise ValueError("dimension mismatch")
        zv = z._v
        re = im = 0
        for k, a, b in support:
            c, e = zv[k], zv[k + 1]
            re += a * c + b * e
            im += a * e - b * c
        num, den = re * re + im * im, dx2 * z._d * z._d
        g = math.gcd(num, den)
        return num // g, den // g

    return pair


def fidelity(x: StateVector, z: StateVector) -> Fraction:
    """|<x|z>|^2: the probability that z passes a test for x, exactly: the
    Fraction of `fidelity_to(x)(z)`."""
    return Fraction(*fidelity_to(x)(z))


def tensor(x: StateVector, y: StateVector) -> StateVector:
    """Joint state; x supplies the high-order qubits.  Each amplitude is the
    Gaussian-integer product of the two over Dx * Dy, then reduced."""
    xv, yv = x._v, y._v
    v = []
    for k in range(0, len(xv), 2):
        a, b = xv[k], xv[k + 1]
        for j in range(0, len(yv), 2):
            c, e = yv[j], yv[j + 1]
            v += (a * c - b * e, a * e + b * c)
    return _from_lattice(x.n_qubits + y.n_qubits, *_reduced(v, x._d * y._d))


# ---------------------------------------------------------------------------
# Code lengths
# ---------------------------------------------------------------------------

def penalty_bits(q) -> int | float:
    """Least integer d >= 0 with q >= 2^-d, by exact integer comparison.

    This is ceil(-log2 q) for rational q in (0, 1]. q == 0 yields INFINITE:
    an orthogonal outcome can never be redescribed, so it contributes nothing
    to any minimum.
    """
    q = _frac(q)
    if q < 0 or q > 1:
        raise ValueError(f"probability out of range: {q}")
    if q == 0:
        return INFINITE
    # the least d with 2^d >= ceil(den / num); q <= 1 makes that at least 1
    return (-(-q.denominator // q.numerator) - 1).bit_length()


@dataclass(frozen=True)
class Basis:
    """An exactly orthonormal basis of 2^n state vectors."""

    vectors: tuple[StateVector, ...]

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("empty basis")
        n = self.vectors[0].n_qubits
        if any(v.n_qubits != n for v in self.vectors):
            raise ValueError("basis vectors have mixed dimensions")
        if len(self.vectors) != 1 << n:
            raise ValueError("basis does not span the space")
        for i, v in enumerate(self.vectors):
            fid = fidelity_to(v)
            for j in range(i + 1, len(self.vectors)):
                if fid(self.vectors[j])[0]:
                    raise ValueError(f"basis vectors {i} and {j} are not orthogonal")

    @property
    def n_qubits(self) -> int:
        return self.vectors[0].n_qubits


def standard_basis(n: int) -> Basis:
    return Basis(tuple(basis_state(n, i) for i in range(1 << n)))


def transformed_basis(n: int, gates) -> Basis:
    """Image of the standard basis under a circuit (exactly orthonormal since
    every gate is unitary)."""
    return Basis(tuple(apply_circuit(basis_state(n, i), gates) for i in range(1 << n)))


def shannon_fano_lengths(basis: Basis, z: StateVector) -> list[int | float]:
    """Per-basis-vector redescription code lengths ceil(-log2 |<e_i|z>|^2).

    Entries are INFINITE where the overlap is exactly zero.  The finite entries
    satisfy 1/2 < sum(2^-length) <= 1: each length reaches the ideal -log2 q_i,
    so 2^-length <= q_i, and the q_i sum to 1, which is the Kraft inequality
    that makes `shannon_fano_code` prefix-free; and each overshoots it by
    less than one bit, so 2^-length > q_i / 2.
    """
    if basis.n_qubits != z.n_qubits:
        raise ValueError("dimension mismatch")
    fid = fidelity_to(z)  # |<e|z>|^2 = |<z|e>|^2
    return [penalty_bits(Fraction(*fid(e))) for e in basis.vectors]


def shannon_fano_code(basis: Basis, z: StateVector) -> dict[int, str]:
    """Actual codewords via the classical cumulative construction.

    Probabilities are sorted descending with ties broken by basis index; the
    codeword for a symbol is the first ceil(-log2 p) bits of the running
    cumulative probability.  Zero-probability symbols get no codeword.  The
    result is prefix-free.
    """
    fid = fidelity_to(z)  # |<e|z>|^2 = |<z|e>|^2
    probs = [Fraction(*fid(e)) for e in basis.vectors]
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
    cum = Fraction(0)
    code: dict[int, str] = {}
    for i in order:
        p = probs[i]
        if p == 0:
            continue
        d = penalty_bits(p)
        scaled = (cum.numerator << d) // cum.denominator
        code[i] = format(scaled, f"0{d}b") if d else ""
        cum += p
    return code


# ---------------------------------------------------------------------------
# Random exact states
# ---------------------------------------------------------------------------

def _pythagorean_rotation(rng: Random) -> tuple[int, int, int]:
    # (a, b, c) with a^2 + b^2 = c^2, so the Givens rotation by (a/c, b/c) is
    # exactly unitary
    while True:
        m = rng.randrange(2, 12)
        k = rng.randrange(1, m)
        if (m - k) % 2 == 1 and math.gcd(m, k) == 1:
            return m * m - k * k, 2 * m * k, m * m + k * k


def random_state(n: int, rng: Random) -> StateVector:
    """Pseudo-random exactly-unit-norm rational state.

    Starts from |0...0> and applies a chain of exact Givens rotations built
    from Pythagorean triples, plus occasional factors of i and -1, so the
    output does not have to be reachable by the machine's gate set.

    The chain runs on the integer form (v, D): a rotation by (a/c, b/c) of
    amplitudes i and j maps their parts (x, y) to (a x - b y, b x + a y) and
    every other part x to c x, over c D.  D is the product of the c's; the
    form is reduced once, at the end.
    """
    dim = 1 << n
    v = [1] + [0] * (2 * dim - 1)
    d = 1
    for _ in range(3 * dim):
        i, j = (2 * k for k in rng.sample(range(dim), 2))  # parts re, im at i, i + 1
        a, b, c = _pythagorean_rotation(rng)
        xs, ys = v[i : i + 2], v[j : j + 2]
        v = [c * x for x in v]
        v[i : i + 2] = [a * x - b * y for x, y in zip(xs, ys)]
        v[j : j + 2] = [b * x + a * y for x, y in zip(xs, ys)]
        d *= c
        if rng.random() < 0.5:
            v[i], v[i + 1] = -v[i + 1], v[i]
        if rng.random() < 0.25:
            v[j], v[j + 1] = -v[j], -v[j + 1]
    return _from_lattice(n, *_reduced(v, d))


# ---------------------------------------------------------------------------
# Serialization (the wire format for the CLI and the cache)
# ---------------------------------------------------------------------------

def json_int(x) -> int:
    """An integer field of a wire record: an int or a decimal string.  A bool
    or a float is refused with TypeError, where int() would coerce it (True
    to 1, 3.9 to 3)."""
    if isinstance(x, (bool, float)):
        raise TypeError(f"not an integer: {x!r}")
    return int(x)


def state_to_json(state: StateVector) -> dict:
    """{"n": int, "amps": [[re_num, re_den, im_num, im_den], ...]} with the
    integers as decimal strings, so arbitrary precision survives JSON.  Each
    part v[k] / D is written in lowest terms, read from the integer form."""
    d = state._d
    parts = []
    for x in state._v:
        g = math.gcd(x, d)
        parts += (str(x // g), str(d // g))
    return {"n": state.n_qubits, "amps": [parts[k : k + 4] for k in range(0, len(parts), 4)]}


def state_from_json(obj) -> StateVector:
    """The state of a wire record, read from its parts' reduced Fractions
    into the integer form; `amps` is not built."""
    try:
        n = json_int(obj["n"])
        parts = [
            Fraction(json_int(num), json_int(den))
            for rn, rd, imn, imd in obj["amps"]
            for num, den in ((rn, rd), (imn, imd))
        ]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed state record: {exc}") from exc
    return _from_parts(n, parts)
