"""Sampled estimation: learning the minimum through measurements alone.

When the target is only available as a measurement outcome, each candidate's
fidelity must be estimated from k projection trials.  The trial count comes
from an exponential tail bound, and the resulting estimate sits within one
bit of the true minimum with the planned confidence.
"""

from qkclab import (
    ROT,
    apply_gate,
    candidate_table,
    classical_state,
    ideal_value,
    k_from_bound,
    projection_oracle,
    sampled_estimate,
    zero_state,
)


def main():
    print("== planning the trial count ==")
    for n, alpha, epsilon in ((1, 0.5, 0.25), (2, 0.05, 0.25), (4, 0.01, 0.25)):
        k = k_from_bound(n, alpha, epsilon)
        print(f"  n={n} alpha={alpha} epsilon={epsilon} -> k = {k}")

    print()
    print("== sampling against |00> ==")
    n, max_len = 2, 10
    alpha, epsilon = 0.05, 0.25
    target = classical_state("00")
    ideal = ideal_value(target, n, max_len, candidate_table(n, max_len))

    print(f"  plan: k={k_from_bound(n, alpha, epsilon)}; exact ideal value = {ideal}")
    for seed in range(5):
        # each estimate trials every halting program's row, repeats included
        result = sampled_estimate(
            projection_oracle(target), n, max_len, alpha, epsilon, seed
        )
        b = result.best
        print(
            f"  seed {seed}: winner {b.program.bits} with m={b.m}/{b.k},"
            f" estimate {b.estimate:.4f} (ideal + {b.estimate - ideal:.4f})"
        )

    print()
    print("== a genuinely fuzzy target ==")
    target = apply_gate(zero_state(1), ROT(0))
    ideal = ideal_value(target, 1, 8, candidate_table(1, 8))
    print(f"  target ROT|0>; ideal value = {ideal:.4f}")
    for seed in range(5):
        result = sampled_estimate(projection_oracle(target), 1, 8, alpha, epsilon, seed)
        b = result.best
        print(f"  seed {seed}: estimate {b.estimate:.4f} via {b.program.bits} (m={b.m})")


if __name__ == "__main__":
    main()
