"""Running programs: single runs, the dovetailed schedule, and the candidate
table with its cache.

All valid programs here halt, so dovetailing is demonstrably equivalent to
running them one after another -- the point is that the staged schedule is
the shape a search over possibly-nonterminating machines would take.
"""

import tempfile

from qkclab import (
    CALLC,
    X,
    decode,
    dovetail,
    encode,
    enumerate_programs,
    cached_outputs,
    run,
    simulation_count,
)
from qkclab.executor import Dovetailer


def main():
    print("== single runs ==")
    result = run(encode([X(0), X(1)], 2), 2)
    print("X0 X1 on |00>:", [str(a) for a in result.output.amps], f"({result.steps} steps)")

    conditional = decode(encode([X(0)], 1).bits, 1, allow_callc=False)
    called = run(encode([CALLC()], 1), 1, conditional=conditional)
    print("CALLC with conditional X0:", [str(a) for a in called.output.amps])
    print("CALLC without a conditional:", run(encode([CALLC()], 1), 1).status)

    print()
    print("== the staged schedule ==")
    programs = list(enumerate_programs(8, 2))
    dv = Dovetailer(programs, 2)
    for _ in range(5):
        dv.advance_stage()
    print("slots offered after 5 stages:", dv.offered[:8], "...")
    print("(program j gets its first step in stage j, one more per stage after)")

    emitted = list(dovetail(programs, 2))
    sequential = [run(p, 2) for p in programs]
    print("dovetail outputs == sequential outputs:",
          {r.program for r in emitted} == {r.program for r in sequential})

    tight = dovetail(programs, 2, step_budget=5)
    done = list(tight)
    print(f"with a 5-step budget: {len(done)} finished, {len(tight.unprocessed)} reported unprocessed")

    print()
    print("== candidate table and its persistent cache ==")
    with tempfile.TemporaryDirectory() as cache_dir:
        before = simulation_count()
        table = cached_outputs(2, 10, cache_dir)
        cold = simulation_count() - before
        before = simulation_count()
        cached_outputs(2, 10, cache_dir)
        warm = simulation_count() - before
        print(f"{len(table.rows)} halting programs cached; cold run simulated {cold}, warm run {warm}")
        print(f"{len(table.firsts)} distinct outputs: only the first program of each can win a scan")


if __name__ == "__main__":
    main()
