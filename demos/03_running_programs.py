"""Running programs: single runs, the enumeration as an approximation from
above, the candidate rows, and the candidate table with its cache.

Every decodable program halts, so running the enumeration in order is the
whole search: each new halting program can only lower the running minimum,
and an estimate's trace records each time it does.
"""

import json
import random
import tempfile

from qkclab import (
    CALLC,
    X,
    cached_outputs,
    candidate_rows,
    candidate_table,
    decode,
    encode,
    enumerate_programs,
    exact_estimate,
    random_state,
    run,
)
from qkclab.executor import cache_path


def main():
    print("== single runs ==")
    output = run(encode([X(0), X(1)], 2), 2)
    print("X0 X1 on |00>:", [str(a) for a in output.amps])

    conditional = decode(encode([X(0)], 1).bits, 1, allow_callc=False)
    called = run(encode([CALLC()], 1), 1, conditional=conditional)
    print("CALLC with conditional X0:", [str(a) for a in called.amps])
    print("CALLC without a conditional halts:", run(encode([CALLC()], 1), 1) is not None)

    print()
    print("== the enumeration, approximated from above ==")
    programs = list(enumerate_programs(14, 2))
    halted = [p for p in programs if run(p, 2) is not None]
    print(f"{len(programs)} programs up to 14 bits for n=2; {len(halted)} halt, "
          f"{len(programs) - len(halted)} need a conditional for CALLC")
    target = random_state(2, random.Random(6))
    est = exact_estimate(target, candidate_table(2, 14))
    print("anytime trace for a random target, (enumeration index, running minimum):", est.trace)
    print("(the minimum never rises; every bound at a prefix is a valid upper bound)")

    print()
    print("== candidate rows, the candidate table and its persistent cache ==")
    rows = candidate_rows(2, 12)
    outputs = {decode(p.bits, 2).gates: out for _i, p, out in rows}
    steps = {(id(outputs[gates[:-1]]), gates[-1]) for gates in outputs if gates}
    print(f"{len(rows)} halting programs; each row is its parent row (the program "
          f"minus its last op) plus one gate, and equal outputs are one object, "
          f"so the {len(rows) - 1} rows after the empty program take {len(steps)} "
          f"distinct steps")
    with tempfile.TemporaryDirectory() as cache_dir:
        table = cached_outputs(2, 12, cache_dir)
        print(f"{len(table.firsts)} distinct outputs: only the first program of each "
              f"can win an exact scan, so the table holds just those, and "
              f"scanned = {table.scanned}")
        header = json.loads(cache_path(cache_dir, 2, 12).read_text().splitlines()[0])
        print(f"cache file: {header['firsts']} first rows, each with its index, "
              f"program and output")
        print("warm read equals the cold build:", cached_outputs(2, 12, cache_dir) == table)

if __name__ == "__main__":
    main()
