"""The reference machine's input language: a self-delimiting, prefix-free
binary encoding of straight-line gate programs, with a deterministic
length-ordered enumerator.

Layout of a program: Elias-gamma code of (gate count + 1), then one field per
gate: a 3-bit opcode followed by fixed-width qubit operands.  `OPS` declares
the opcodes and their operands once; encoding, decoding and enumeration all
read it.  The number of bits consumed is fully determined by what has been
read, so no decodable program can be a proper prefix of another decodable
program.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import permutations
from typing import Iterator, Optional, Union

from .statevec import CNOT, PHASE, ROT, X, Gate, operands

# Bumping this invalidates every cache file and dated report.
ENCODING_VERSION = "pf1"


@dataclass(frozen=True)
class CALLC:
    """Conditional call: splices the conditional program's gates in place.

    Takes no operands.  A conditional program may not itself contain CALLC,
    which keeps expansion finite.
    """


Op = Union[Gate, CALLC]

# The gate set, declared once: 3-bit opcode i names OPS[i], and an op's
# operands are its dataclass fields in declaration order, each a qubit index.
# Opcodes 101, 110, 111 are invalid and make the whole program undecodable.
OPS = (X, CNOT, ROT, PHASE, CALLC)
OPCODE_WIDTH = 3
_ARITY = tuple(len(fields(op)) for op in OPS)


@dataclass(frozen=True)
class Program:
    """A finite binary string; the machine's self-delimiting input."""

    bits: str

    def __post_init__(self):
        if self.bits.strip("01"):
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
    if type(op) not in OPS:
        raise TypeError(f"not an encodable op: {op!r}")
    w = index_width(n)
    bits = format(OPS.index(type(op)), f"0{OPCODE_WIDTH}b")
    for i in operands(op):
        if not 0 <= i < n:
            raise ValueError(f"qubit index {i} out of range for n={n}")
        bits += format(i, f"0{w}b")
    return bits


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
    gates: list[Op] = []
    for _ in range(count):
        start = pos + OPCODE_WIDTH
        if start > len(bits):
            return None
        opcode = int(bits[pos:start], 2)
        if opcode >= len(OPS):
            return None
        pos = start + _ARITY[opcode] * w
        if pos > len(bits):
            return None
        args = [int(bits[i : i + w], 2) for i in range(start, pos, w)]
        # one rule for every op; it also keeps CNOT's control and target apart
        if args and (max(args) >= n or len(set(args)) < len(args)):
            return None
        gates.append(OPS[opcode](*args))
    program = DecodedProgram(n, tuple(gates))
    if program.has_call and not allow_callc:
        return None
    return program, pos


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
    """Every op valid at width n with its bit field, in opcode order, then
    operand order."""
    ops = [op(*args) for op, k in zip(OPS, _ARITY) for args in permutations(range(n), k)]
    return [(_op_bits(op, n), op) for op in ops]


def _sequences(alphabet, k: int, budget: int) -> Iterator[tuple[str, tuple[Op, ...]]]:
    # Narrowest field is a bare opcode, which prunes the recursion early.
    if k == 0:
        yield "", ()
        return
    for bits, op in alphabet:
        rest = budget - len(bits)
        if rest < OPCODE_WIDTH * (k - 1):
            continue
        for tail, ops in _sequences(alphabet, k - 1, rest):
            yield bits + tail, (op,) + ops


def enumerate_decoded(max_len: int, n: int) -> Iterator[tuple[Program, tuple[Op, ...]]]:
    """All decodable programs of length <= max_len, ordered by (length, then
    numeric value of the bits), each with its gate tuple: the gates
    `decode(program.bits, n)` would return, kept from building the bits, so
    nothing is decoded.  Deterministic and platform-independent.
    """
    if max_len < 1:
        return
    alphabet = _op_alphabet(n)
    programs: list[tuple[Program, tuple[Op, ...]]] = []
    k = 0
    while True:
        header = gamma_encode(k + 1)
        if len(header) + OPCODE_WIDTH * k > max_len:
            break  # header length and minimum body both grow with k
        for body, gates in _sequences(alphabet, k, max_len - len(header)):
            programs.append((Program(header + body), gates))
        k += 1
    programs.sort(key=lambda pg: (pg[0].length, pg[0].value))
    yield from programs


def enumerate_programs(max_len: int, n: int) -> Iterator[Program]:
    """The programs of `enumerate_decoded`, in its order, without their
    gates."""
    for program, _gates in enumerate_decoded(max_len, n):
        yield program


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
