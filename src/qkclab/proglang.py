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
from functools import cache
from fractions import Fraction
from itertools import product, tee
from typing import Iterator, Optional, Union

from .statevec import CNOT, PHASE, ROT, X, Gate, json_int, operands

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


def _valid(args: tuple[int, ...], n: int) -> bool:
    """Whether an op with these operands is valid at width n: each operand a
    qubit index below n, and no qubit twice.  The one statement of validity,
    which encoding, decoding and the alphabet all ask."""
    return all(0 <= i < n for i in args) and len(set(args)) == len(args)


def _op_bits(op: Op, n: int) -> str:
    if type(op) not in OPS:
        raise TypeError(f"not an encodable op: {op!r}")
    if not _valid(operands(op), n):
        raise ValueError(f"{op!r} has a qubit index out of range for n={n}")
    w = index_width(n)
    bits = format(OPS.index(type(op)), f"0{OPCODE_WIDTH}b")
    return bits + "".join(format(i, f"0{w}b") for i in operands(op))


def encode(gates, n: int) -> Program:
    """Inverse of decode: gamma header for the count, then the gate fields."""
    gates = tuple(gates)
    return Program(gamma_encode(len(gates) + 1) + "".join(_op_bits(g, n) for g in gates))


def decode(bits: str, n: int, allow_callc: bool = True) -> Optional[DecodedProgram]:
    """Parse a whole program; None means "non-halting" for the executor.

    The gamma header gives the gate count.  Each gate field is a 3-bit
    opcode, then its op's operands in `index_width(n)` bits each.  An invalid
    opcode, a field cut short, operands that `_valid` refuses, a CALLC when
    `allow_callc` is false, or bits left over after the last field make the
    string undecodable: the last keeps the decodable set prefix-free.  The
    time is linear in len(bits) at every width.
    """
    header = _gamma_decode(bits, 0)
    if header is None:
        return None
    count, pos = header
    w = index_width(n)
    gates: list[Op] = []
    for _ in range(count - 1):
        start = pos + OPCODE_WIDTH
        if start > len(bits) or (code := int(bits[pos:start], 2)) >= len(OPS):
            return None
        pos = start + _ARITY[code] * w
        if pos > len(bits):
            return None
        args = tuple(int(bits[i : i + w], 2) for i in range(start, pos, w))
        if not _valid(args, n):
            return None
        gates.append(OPS[code](*args))
    program = DecodedProgram(n, tuple(gates))
    if pos != len(bits) or (program.has_call and not allow_callc):
        return None
    return program


def _opcode_fields(code: int, n: int) -> Iterator[tuple[str, Op]]:
    """Every op of opcode `code` that `_valid` accepts at width n with its
    bit field, in operand order, which is the order of the fields' bits."""
    for args in product(range(n), repeat=_ARITY[code]):
        if _valid(args, n):
            op = OPS[code](*args)
            yield _op_bits(op, n), op


def _op_alphabet(n: int) -> list[tuple[str, Op]]:
    """Every op that `_valid` accepts at width n with its bit field, in
    opcode order, then operand order: the order of the fields' bits."""
    return [field for code in range(len(OPS)) for field in _opcode_fields(code, n)]


def _sequences(codes, fields_of, k: int, size: int, sizes) -> Iterator[tuple[str, tuple[Op, ...]]]:
    """Every sequence of k fields whose bits total exactly `size`, in the
    order of its bits.  `codes` holds (opcode, field width) for each opcode
    in order, and `fields_of(code)` is a pass over that opcode's fields.
    sizes[j] is the set of totals that j fields reach, so no branch is
    entered that yields nothing, and no field is built before one fits."""
    if k == 0:
        yield "", ()
        return
    for code, width in codes:
        rest = size - width
        if rest in sizes[k - 1]:
            for bits, op in fields_of(code):
                for tail, ops in _sequences(codes, fields_of, k - 1, rest, sizes):
                    yield bits + tail, (op,) + ops


def enumerate_decoded(max_len: int, n: int) -> Iterator[tuple[Program, tuple[Op, ...]]]:
    """All decodable programs of length <= max_len, ordered by (length, then
    numeric value of the bits), each with its gate tuple: the gates
    `decode(program.bits, n)` would return, kept from building the bits, so
    nothing is decoded.  Deterministic and platform-independent.

    A lazy generator, one length at a time.  Within a length the order is
    that of the bits: headers are prefix-free, so programs order by header
    bits first, and bodies by their fields' bits in turn.  The field widths
    come from the arities alone: an opcode has a valid op exactly when
    `_valid` accepts its first operands, 0 .. arity - 1.  Its fields are
    built in operand order only as far as some program reads them, and every
    pass over them shares what is built, so a wide register builds no field
    past the last one a yielded program holds.
    """
    w = index_width(n)
    codes = [(code, OPCODE_WIDTH + k * w) for code, k in enumerate(_ARITY)
             if _valid(tuple(range(k)), n)]
    widths = sorted({width for _code, width in codes})
    # one unread tee per opcode holds the fields built so far, and each copy
    # of it is a fresh pass that builds more only as it reads past them
    starts = cache(lambda code: tee(_opcode_fields(code, n), 1)[0])
    fields_of = lambda code: starts(code).__copy__()
    sizes = [{0}]  # sizes[k]: the body sizes that k fields reach
    for length in range(1, max_len + 1):
        headers = []
        k = 0
        while True:
            header = gamma_encode(k + 1)
            if len(header) + OPCODE_WIDTH * k > length:
                break  # header length and minimum body both grow with k
            if k == len(sizes):
                sizes.append({s + width for s in sizes[-1] for width in widths})
            if length - len(header) in sizes[k]:
                headers.append((header, k))
            k += 1
        for header, k in sorted(headers):
            for body, gates in _sequences(codes, fields_of, k, length - len(header), sizes):
                yield Program(header + body), gates


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
    """The program of a wire record.  `len` must be an integer, not a bool or
    a float, and `bits_hex` a value that fits in `len` bits, so the empty
    program is only {"len": 0, "bits_hex": "0"}."""
    try:
        length = json_int(obj["len"])
        value = int(obj["bits_hex"], 16)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed program record: {exc}") from exc
    if length < 0 or value < 0 or value.bit_length() > length:
        raise ValueError(f"program value does not fit in {length} bits")
    return Program(format(value, f"0{length}b") if length else "")
