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
from math import perm
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


def decode(bits: str, n: int) -> Optional[tuple[Op, ...]]:
    """Parse a whole program into its gate tuple; None means "non-halting"
    for the executor.

    The gamma header gives the gate count.  Each gate field is a 3-bit
    opcode, then its op's operands in `index_width(n)` bits each.  An invalid
    opcode, a field cut short, operands that `_valid` refuses, or bits left
    over after the last field make the string undecodable: the last keeps
    the decodable set prefix-free.  The time is linear in len(bits) at every
    width.
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
    return tuple(gates) if pos == len(bits) else None


def callc_free_gates(program: Program, n: int) -> tuple[Op, ...]:
    """The gates of a program that is to run in place of CALLC, or of a
    generator: it must decode at the width n that runs it and hold no CALLC,
    which keeps expansion finite.  Raises ValueError otherwise."""
    gates = decode(program.bits, n)
    if gates is None or CALLC in map(type, gates):
        raise ValueError(f"not a decodable CALLC-free program for n={n}: {program.bits!r}")
    return gates


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


def _field_count(code: int, n: int) -> int:
    """How many fields opcode `code` has at width n: the ordered choices of
    `_ARITY[code]` distinct qubits below n that `_valid` accepts, the falling
    factorial n (n - 1) ... (n - arity + 1).  Counted, not listed, so a wide
    register builds no field to know it."""
    return perm(n, _ARITY[code])


class _BodyCounts:
    """N(k, B): how many bodies of k valid fields at width n total exactly B
    bits.  N(0, B) is 1 for B = 0 and 0 otherwise, and N(k, B) is the sum over
    opcodes of c_op * N(k - 1, B - w_op), with c_op the opcode's field count
    and w_op its field width.  The decodable programs are a regular language
    (a gamma header for k, then k fields), and this is its standard count
    (Goldberg and Sipser, "Compression and ranking", STOC 1985).

    `codes` holds (opcode, field width, field count) for each opcode with a
    field, in opcode order.  `rows[k][B]` is N(k, B), and `cover` grows the
    rows only as far as a reader asks."""

    def __init__(self, n: int):
        w = index_width(n)
        self.codes = [(code, OPCODE_WIDTH + arity * w, count)
                      for code, arity in enumerate(_ARITY) if (count := _field_count(code, n))]
        self.rows = [[1]]

    def cover(self, size: int) -> list[list[int]]:
        """The rows, grown to every body of at most `size` bits: N(k, B) for
        every B <= size and every k that so many bits can hold."""
        rows = self.rows
        while len(rows) <= size // OPCODE_WIDTH:  # no field is shorter
            rows.append([])
        for k, row in enumerate(rows):
            for total in range(len(row), size + 1):
                row.append(sum(count * rows[k - 1][total - width]
                               for _code, width, count in self.codes if total >= width)
                           if k else 0)
        return rows


def _sequences(
    codes, fields_of, rows, k: int, size: int, start: int
) -> Iterator[tuple[int, str, tuple[Op, ...]]]:
    """(index, bits, ops) of every sequence of k fields whose bits total
    exactly `size`, in the order of its bits, its index `start` plus the
    number of such sequences before it.  `codes` holds (opcode, field width,
    field count, entered) for each opcode in order, `fields_of(code)` is a
    pass over that opcode's fields, and `rows` is the count table.  A branch
    that holds no sequence is not entered, and no field is built before one
    fits; a branch whose opcode is not entered is skipped whole, its count
    added to the index."""
    if k == 0:
        yield start, "", ()
        return
    below = rows[k - 1]
    for code, width, count, entered in codes:
        rest = size - width
        if rest < 0 or not (tails := below[rest]):
            continue
        if not entered:
            start += count * tails
            continue
        for bits, op in fields_of(code):
            for index, tail, ops in _sequences(codes, fields_of, rows, k - 1, rest, start):
                yield index, bits + tail, (op,) + ops
            start += tails


def enumerate_decoded(
    max_len: int, n: int, callc: bool = True
) -> Iterator[tuple[int, Program, tuple[Op, ...]]]:
    """(index, program, gates) of every decodable program of length <=
    max_len, ordered by (length, then numeric value of the bits): its index
    in that order, and the gates `decode(program.bits, n)` would return, kept
    from building the bits, so nothing is decoded.  Deterministic and
    platform-independent.

    With callc=False, no program that holds a CALLC is built: each CALLC
    branch is skipped whole and its count, from `_BodyCounts`, added to the
    index, so every index stays that of the full enumeration.

    A lazy generator, one length at a time.  Within a length the order is
    that of the bits: headers are prefix-free, so programs order by header
    bits first, and bodies by their fields' bits in turn.  The field widths
    and counts come from the arities alone.  An opcode's fields are built in
    operand order only as far as some program reads them, and every pass
    over them shares what is built, so a wide register builds no field past
    the last one a yielded program holds.
    """
    counts = _BodyCounts(n)
    codes = [(code, width, count, callc or OPS[code] is not CALLC)
             for code, width, count in counts.codes]
    # one unread tee per opcode holds the fields built so far, and each copy
    # of it is a fresh pass that builds more only as it reads past them
    starts = cache(lambda code: tee(_opcode_fields(code, n), 1)[0])
    fields_of = lambda code: starts(code).__copy__()
    index = 0
    for length in range(1, max_len + 1):
        rows = counts.cover(length)
        headers = []
        k = 0
        while True:
            header = gamma_encode(k + 1)
            if len(header) + OPCODE_WIDTH * k > length:
                break  # header length and minimum body both grow with k
            if rows[k][length - len(header)]:
                headers.append((header, k))
            k += 1
        for header, k in sorted(headers):
            size = length - len(header)
            for i, body, gates in _sequences(codes, fields_of, rows, k, size, index):
                yield i, Program(header + body), gates
            index += rows[k][size]


def enumerate_programs(max_len: int, n: int) -> Iterator[Program]:
    """The programs of `enumerate_decoded`, in its order, without their
    indices or gates."""
    for _index, program, _gates in enumerate_decoded(max_len, n):
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
    most 1 for any prefix-free set.  A program of length L is a header for k
    gates and a body of L - len(header) bits, so the sum is over the counts
    of `_BodyCounts`, and no program is read."""
    total = 0
    for k, row in enumerate(_BodyCounts(n).cover(max_len)):
        spare = max_len - len(gamma_encode(k + 1))
        total += sum(row[size] << (spare - size) for size in range(spare + 1))
    return Fraction(total, 1 << max_len)


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
