"""The prefix-free program language.

A program is a gamma-coded gate count followed by fixed-width gate fields.
Decoding consumes a predetermined number of bits, which is what makes the
decodable set prefix-free -- and that in turn is what powers every counting
argument in the lab.
"""

from qkclab import (
    CALLC,
    CNOT,
    ROT,
    X,
    decode,
    encode,
    enumerate_programs,
    kraft_sum,
    verify_prefix_free,
)


def main():
    print("== encoding ==")
    for gates, n in ([], 2), ([X(0)], 2), ([CNOT(0, 1)], 2), ([CALLC()], 2), ([ROT(0), X(1)], 2):
        program = encode(gates, n)
        names = ",".join(type(g).__name__ for g in gates) or "(empty)"
        print(f"  {names:14s} n={n} -> {program.bits}  ({program.length} bits)")

    print()
    print("== decoding is all-or-nothing ==")
    print("  decode('1') ->", decode("1", 2))
    print("  decode('0101010') ->", decode("0101010", 2), " (opcode 101 is invalid)")
    print("  decode('0100000' + '1') ->", decode("01000001", 2), " (trailing bit)")

    print()
    print("== enumeration in canonical order ==")
    programs = list(enumerate_programs(8, 2))
    for p in programs:
        print(f"  {p.bits:>8s}  length {p.length}")
    print(f"{len(programs)} decodable programs up to 8 bits at n=2")

    print()
    print("== global structure ==")
    print("prefix-free up to 12 bits:", verify_prefix_free(12, 2))
    print("Kraft sum up to 16 bits:", kraft_sum(16, 2), "<= 1")


if __name__ == "__main__":
    main()
