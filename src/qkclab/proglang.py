"""The reference machine's input language: a self-delimiting, prefix-free
binary encoding of straight-line gate programs, with a deterministic
length-ordered enumerator.

Layout of a program: Elias-gamma code of (gate count + 1), then one field per
gate: a 3-bit opcode followed by fixed-width qubit operands.  The number of
bits consumed is fully determined by what has been read, so no decodable
program can be a proper prefix of another decodable program.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from .statevec import CNOT, PHASE, ROT, X, Gate

# Bumping this invalidates every cache file and dated report.
ENCODING_VERSION = "pf1"

OPCODE_X = "000"
OPCODE_CNOT = "001"
OPCODE_ROT = "010"
OPCODE_PHASE = "011"
OPCODE_CALLC = "100"
# 101, 110, 111 are invalid and make the whole program undecodable.


@dataclass(frozen=True)
class CALLC:
    """Conditional call: splices the conditional program's gates in place.

    Takes no operands.  A conditional program may not itself contain CALLC,
    which keeps expansion finite.
    """


Op = Union[Gate, CALLC]


@dataclass(frozen=True)
class Program:
    """A finite binary string; the machine's self-delimiting input."""

    bits: str

    def __post_init__(self):
        if any(b not in "01" for b in self.bits):
            raise ValueError(f"not a bit string: {self.bits!r}")

    @property
    def length(self) -> int:
        return len(self.bits)

    @property
    def value(self) -> int:
        """The bits read as a binary number; the within-length sort key."""
        return int(self.bits, 2) if self.bits else 0

    def __str__(self) -> str:
        return self.bits


@dataclass(frozen=True)
class DecodedProgram:
    """Parsed gate sequence for a fixed register width n."""

    n: int
    gates: tuple[Op, ...]

    @property
    def call_sites(self) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.gates) if isinstance(g, CALLC))

    @property
    def has_call(self) -> bool:
        return any(isinstance(g, CALLC) for g in self.gates)


def index_width(n: int) -> int:
    """Bits per qubit operand: ceil(log2 n), but never zero."""
    if n < 1:
        raise ValueError("n must be positive")
    return max(1, (n - 1).bit_length())


def gamma_encode(m: int) -> str:
    """Elias gamma code of a positive integer: floor(log2 m) zeros, then the
    binary digits of m."""
    if m < 1:
        raise ValueError("gamma codes positive integers only")
    body = bin(m)[2:]
    return "0" * (len(body) - 1) + body


def _gamma_decode(bits: str, pos: int) -> Optional[tuple[int, int]]:
    z = 0
    while pos + z < len(bits) and bits[pos + z] == "0":
        z += 1
    start = pos + z
    end = start + z + 1
    if end > len(bits):
        return None  # ran out of bits mid-header
    return int(bits[start:end], 2), end


def _op_bits(op: Op, n: int) -> str:
    w = index_width(n)

    def idx(i: int) -> str:
        if not 0 <= i < n:
            raise ValueError(f"qubit index {i} out of range for n={n}")
        return format(i, f"0{w}b")

    if isinstance(op, X):
        return OPCODE_X + idx(op.target)
    if isinstance(op, CNOT):
        return OPCODE_CNOT + idx(op.control) + idx(op.target)
    if isinstance(op, ROT):
        return OPCODE_ROT + idx(op.target)
    if isinstance(op, PHASE):
        return OPCODE_PHASE + idx(op.target)
    if isinstance(op, CALLC):
        return OPCODE_CALLC
    raise TypeError(f"not an encodable op: {op!r}")


def op_width(op: Op, n: int) -> int:
    return len(_op_bits(op, n))


def encode(gates, n: int) -> Program:
    """Inverse of decode: gamma header for the count, then the gate fields."""
    gates = tuple(gates)
    return Program(gamma_encode(len(gates) + 1) + "".join(_op_bits(g, n) for g in gates))


def decode_prefix(
    bits: str, n: int, allow_callc: bool = True
) -> Optional[tuple[DecodedProgram, int]]:
    """Parse one program from the front of a bit stream.

    Returns (program, bits consumed), or None if the stream does not start
    with a decodable program (invalid opcode, truncated field, out-of-range
    qubit index, CNOT with control == target, or a forbidden CALLC).
    """
    header = _gamma_decode(bits, 0)
    if header is None:
        return None
    count, pos = header
    count -= 1
    w = index_width(n)

    def read(width: int) -> Optional[int]:
        nonlocal pos
        if pos + width > len(bits):
            return None
        val = int(bits[pos : pos + width], 2)
        pos += width
        return val

    gates: list[Op] = []
    for _ in range(count):
        opcode = read(3)
        if opcode is None:
            return None
        if opcode == int(OPCODE_X, 2):
            t = read(w)
            if t is None or t >= n:
                return None
            gates.append(X(t))
        elif opcode == int(OPCODE_CNOT, 2):
            c = read(w)
            t = read(w)
            if c is None or t is None or c >= n or t >= n or c == t:
                return None
            gates.append(CNOT(c, t))
        elif opcode == int(OPCODE_ROT, 2):
            t = read(w)
            if t is None or t >= n:
                return None
            gates.append(ROT(t))
        elif opcode == int(OPCODE_PHASE, 2):
            t = read(w)
            if t is None or t >= n:
                return None
            gates.append(PHASE(t))
        elif opcode == int(OPCODE_CALLC, 2):
            if not allow_callc:
                return None
            gates.append(CALLC())
        else:
            return None  # opcodes 101-111 are invalid
    return DecodedProgram(n, tuple(gates)), pos


def decode(bits: str, n: int, allow_callc: bool = True) -> Optional[DecodedProgram]:
    """Parse a whole program; None means "non-halting" for the executor.

    Trailing bits beyond the parsed program also make the string
    undecodable -- that is what keeps the decodable set prefix-free.
    """
    parsed = decode_prefix(bits, n, allow_callc=allow_callc)
    if parsed is None:
        return None
    program, consumed = parsed
    if consumed != len(bits):
        return None
    return program


def _op_alphabet(n: int) -> list[tuple[str, Op]]:
    ops: list[tuple[str, Op]] = []
    for t in range(n):
        ops.append((_op_bits(X(t), n), X(t)))
    for c in range(n):
        for t in range(n):
            if c != t:
                ops.append((_op_bits(CNOT(c, t), n), CNOT(c, t)))
    for t in range(n):
        ops.append((_op_bits(ROT(t), n), ROT(t)))
    for t in range(n):
        ops.append((_op_bits(PHASE(t), n), PHASE(t)))
    ops.append((_op_bits(CALLC(), n), CALLC()))
    return ops


def _sequences(alphabet, k: int, budget: int) -> Iterator[str]:
    # Narrowest field is 3 bits (CALLC), which prunes the recursion early.
    if k == 0:
        yield ""
        return
    for bits, _op in alphabet:
        rest = budget - len(bits)
        if rest < 3 * (k - 1):
            continue
        for tail in _sequences(alphabet, k - 1, rest):
            yield bits + tail


def enumerate_programs(max_len: int, n: int) -> Iterator[Program]:
    """All decodable programs of length <= max_len, ordered by (length, then
    numeric value of the bits).  Deterministic and platform-independent.
    """
    if max_len < 1:
        return
    alphabet = _op_alphabet(n)
    programs: list[Program] = []
    k = 0
    while True:
        header = gamma_encode(k + 1)
        if len(header) + 3 * k > max_len:
            break  # header length and minimum body both grow with k
        for body in _sequences(alphabet, k, max_len - len(header)):
            programs.append(Program(header + body))
        k += 1
    programs.sort(key=lambda p: (p.length, p.value))
    yield from programs


def verify_prefix_free(max_len: int, n: int, decodes=None) -> bool:
    """Exhaustively confirm that no decodable string is a proper prefix of
    another decodable string, over all strings of length <= max_len.

    `decodes` may replace the real decodability test (deliberately broken
    decoders are useful as negative controls).  Exponential scan: keep
    max_len at or below ~24.
    """
    if decodes is None:
        decodes = lambda bits: decode(bits, n) is not None
    seen: set[str] = set()
    for length in range(1, max_len + 1):
        for v in range(1 << length):
            bits = format(v, f"0{length}b")
            if decodes(bits):
                seen.add(bits)
    for bits in seen:
        for cut in range(1, len(bits)):
            if bits[:cut] in seen:
                return False
    return True


def kraft_sum(max_len: int, n: int) -> Fraction:
    """Exact sum of 2^-length over the decodable programs up to max_len; at
    most 1 for any prefix-free set."""
    total = Fraction(0)
    for p in enumerate_programs(max_len, n):
        total += Fraction(1, 1 << p.length)
    return total


def program_to_json(p: Program) -> dict:
    """Hex-with-bitlength wire format: {"len": int, "bits_hex": str}."""
    return {"len": p.length, "bits_hex": format(p.value, "x")}


def program_from_json(obj) -> Program:
    try:
        length = int(obj["len"])
        value = int(obj["bits_hex"], 16)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed program record: {exc}") from exc
    if length < 0 or value >= 1 << max(length, 1):
        raise ValueError(f"program value does not fit in {length} bits")
    return Program(format(value, f"0{length}b") if length else "")
