"""Exact complexity estimates.

The estimate of a state is the cheapest (program length + penalty) over every
decodable program up to a bound.  Three things to notice: the anytime trace
only ever decreases; an approximate description often beats the exact one;
and a conditional program makes its output cost a small constant.
"""

from random import Random

from qkclab import (
    CALLC,
    PHASE,
    ROT,
    X,
    apply_gate,
    candidate_table,
    classical_state,
    encode,
    exact_estimate,
    random_state,
    run,
    upper_bound_witness,
    zero_state,
)


def show(label, est):
    if est.best is None:
        print(f"  {label}: no finite estimate at this bound")
        return
    b = est.best
    print(
        f"  {label}: total {b.total} bits = length {b.length} + penalty {b.penalty}"
        f"  (program {b.program.bits}, fidelity {b.fidelity})"
    )


def main():
    print("== approximate descriptions can win ==")
    target = apply_gate(zero_state(1), ROT(0))
    show("ROT|0>", exact_estimate(target, candidate_table(1, 8)))
    print("  ... the exact 7-bit ROT program loses to the empty program plus 2 penalty bits")
    table = candidate_table(2, 12)  # enumerated and simulated once for both
    show("|11> ", exact_estimate(classical_state("11"), table))

    print()
    print("== the anytime trace ==")
    est = exact_estimate(random_state(2, Random(5)), table)
    print("  running minimum (enumeration index, total):", est.trace)

    print()
    print("== pigeonhole upper bound ==")
    table = candidate_table(2, 11)  # enumerated and simulated once for all three
    for seed in (1, 2, 3):
        target = random_state(2, Random(seed))
        prog, record = upper_bound_witness(target)
        est = exact_estimate(target, table)
        print(
            f"  seed {seed}: witness length {prog.length} + penalty {record.penalty}"
            f" >= estimate {est.best.total}"
        )

    print()
    print("== conditional reuse ==")
    # a deliberately long-winded program that still outputs exactly |1>
    generator = encode([X(0), PHASE(0), PHASE(0), PHASE(0), PHASE(0)], 1)
    target = run(generator, 1)
    show(f"without conditional ({generator.length}-bit generator)",
         exact_estimate(target, candidate_table(1, 12)))
    # the conditional rides on the table: its CALLC programs run the generator
    show("with the generator as conditional",
         exact_estimate(target, candidate_table(1, 12, generator)))
    print(f"  the CALLC program costs {encode([CALLC()], 1).length} bits no matter how long the generator is")


if __name__ == "__main__":
    main()
