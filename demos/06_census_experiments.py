"""The experiment suite: counting, consistency, additivity.

Everything here is a finite, exactly-checkable shadow of an asymptotic
statement: most basis vectors of any orthonormal basis are incompressible,
classical strings cost what their shortest program costs, and joint states
are never much dearer than their parts.
"""

import tempfile

from qkclab import (
    ROT,
    X,
    Program,
    consistency_sweep,
    encode,
    incompressibility_census,
    rotated_basis,
    subadditivity_report,
    superposed_bit_example,
    uniform_sweep,
)


def main():
    with tempfile.TemporaryDirectory() as cache:
        print("== incompressibility census ==")
        for n in (1, 2, 3):
            for c in range(1, n + 1):
                report = incompressibility_census(n, c, 12, cache_dir=cache)
                print(
                    f"  n={n} c={c}: {report.count_below} below {n - c}"
                    f" (bound {report.bound}) -> {'ok' if report.verdict else 'FAIL'}"
                )
        rot = incompressibility_census(2, 1, 12, basis=rotated_basis(2),
                                       cache_dir=cache, label="rotated")
        print(f"  rotated basis n=2 c=1: {rot.count_below} below 1 -> {'ok' if rot.verdict else 'FAIL'}")
        sweep = uniform_sweep(2, 1, 12, samples=30, seed=0, cache_dir=cache)
        print(f"  random states with estimate >= n-c: {sweep['fraction_incompressible']:.2f}")

        print()
        print("== consistency with exact program length ==")
        for n in (1, 2):
            sweep = consistency_sweep(n, 12, cache_dir=cache)
            gaps = [r.gap for r in sweep.records]
            print(f"  n={n}: gaps {gaps}, max {sweep.max_gap}")

        print()
        print("== sub-additivity ==")
        pairs = [
            (Program("1"), Program("1")),
            (encode([X(0)], 1), Program("1")),
            (encode([ROT(0)], 1), encode([ROT(0)], 1)),
            (encode([ROT(0), ROT(0)], 1), encode([X(0)], 1)),
        ]
        for p_x, p_y in pairs:
            r = subadditivity_report(p_x, p_y, 16, cache_dir=cache)
            if r.conclusive:
                print(
                    f"  K(x,y)={r.joint.best.total} <= K(x|py)={r.conditional.best.total}"
                    f" + K(y)={r.unconditional_y.best.total}  (slack {r.slack})"
                )
            else:
                print(f"  inconclusive: {r.reason}")

        print()
        print("== joint-state bound ==")
        jb = subadditivity_report(encode([ROT(0)], 1), Program("1"), 12, cache_dir=cache)
        print(
            f"  K(x,y)={jb.joint.best.total} vs K(y) - log2 fid = {jb.bound_rhs:.3f}"
            f"  (fid {jb.fidelity_xy}, slack {jb.bound_slack:.3f}; may be negative)"
        )

        print()
        print("== the superposed-bit example ==")
        ex = superposed_bit_example(2, 12, cache_dir=cache)
        print(f"  {ex.note}")
        print(
            f"  rotated |{ex.bits}> at position {ex.position}:"
            f" estimate {ex.rotated.best.total} bits"
            f" (classical string costs {ex.classical.best.total},"
            f" exact construction {ex.constructive.length})"
        )
        print(f"  basis code lengths: {ex.basis_code_lengths}")


if __name__ == "__main__":
    main()
