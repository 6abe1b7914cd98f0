"""Exact amplitudes and code lengths.

The machine's amplitudes are Gaussian rationals, so every question below --
norm, overlap, penalty -- is answered by integer arithmetic, never a float.
"""

from fractions import Fraction

from qkclab import (
    CNOT,
    ROT,
    apply_circuit,
    apply_gate,
    fidelity,
    penalty_bits,
    shannon_fano_code,
    shannon_fano_lengths,
    standard_basis,
    zero_state,
)


def main():
    print("== one qubit, one rotation ==")
    rotated = apply_gate(zero_state(1), ROT(0))
    print("ROT|0> amplitudes:", [str(a) for a in rotated.amps])
    print("norm^2:", rotated.norm_sq(), "(exact)")

    q = fidelity(zero_state(1), rotated)
    print(f"fidelity with |0>: {q} -> penalty {penalty_bits(q)} bits")
    print(f"fidelity with |1>: {Fraction(16,25)} -> penalty {penalty_bits(Fraction(16,25))} bit")

    print()
    print("== redescription code lengths against the standard basis ==")
    entangled = apply_circuit(zero_state(2), [ROT(0), CNOT(0, 1)])
    print("ROT then CNOT on |00>:", [str(a) for a in entangled.amps])
    basis = standard_basis(2)
    lengths = shannon_fano_lengths(basis, entangled)
    code = shannon_fano_code(basis, entangled)
    for i, length in enumerate(lengths):
        word = code.get(i, "-")
        print(f"  |{i:02b}>  length {length}  codeword {word!r}")
    finite = [l for l in lengths if l != float("inf")]
    print("sum of 2^-length over finite entries:",
          sum(Fraction(1, 1 << l) for l in finite), "(always in (1/2, 1])")


if __name__ == "__main__":
    main()
