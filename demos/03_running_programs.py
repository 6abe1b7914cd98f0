"""Running programs: single runs, the enumeration as an approximation from
above, and the candidate table with its cache.

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
    result = run(encode([X(0), X(1)], 2), 2)
    print("X0 X1 on |00>:", [str(a) for a in result.output.amps])

    conditional = decode(encode([X(0)], 1).bits, 1, allow_callc=False)
    called = run(encode([CALLC()], 1), 1, conditional=conditional)
    print("CALLC with conditional X0:", [str(a) for a in called.output.amps])
    print("CALLC without a conditional halts:", run(encode([CALLC()], 1), 1).output is not None)

    print()
    print("== the enumeration, approximated from above ==")
    programs = list(enumerate_programs(14, 2))
    halted = [p for p in programs if run(p, 2).output is not None]
    print(f"{len(programs)} programs up to 14 bits for n=2; {len(halted)} halt, "
          f"{len(programs) - len(halted)} need a conditional for CALLC")
    target = random_state(2, random.Random(6))
    est = exact_estimate(target, 2, 14)
    print("anytime trace for a random target, (enumeration index, running minimum):", est.trace)
    print("(the minimum never rises; every bound at a prefix is a valid upper bound)")

    print()
    print("== candidate table and its persistent cache ==")
    with tempfile.TemporaryDirectory() as cache_dir:
        table = cached_outputs(2, 10, cache_dir)
        print(f"{len(table.rows)} halting programs cached; each row is its parent row "
              f"(the program minus its last op) plus one gate")
        print(f"{len(table.firsts)} distinct outputs: only the first program of each can win a scan")
        header = json.loads(cache_path(cache_dir, 2, 10).read_text().splitlines()[0])
        print(f"cache file: {header['rows']} rows pointing to {header['outputs']} distinct "
              f"outputs, each stored once")
        print("warm read equals the cold build:", cached_outputs(2, 10, cache_dir) == table)


if __name__ == "__main__":
    main()
