"""Records reference.json: the sha256 of every op's report, with its config
object removed, as the code at hand produces it.  The census digests are
checked to agree between a cold and a warm cache; no report is recorded that
fails the seed-independent invariants.

    python3 perfbench/make_reference.py

qkclab's outputs are meant never to change, so rerun this only when a change
to them is intended, and say so where the change is described.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl


def record(op: wl.Op, ideal, digests: dict) -> None:
    res = run.run_op(op)
    errors = res.errors or wl.invariant_errors(res.report, ideal)
    if errors:
        sys.exit(f"{op.key}: {errors}")
    d = wl.digest(res.report)
    if digests.setdefault(op.key, d) != d:
        sys.exit(f"{op.key}: digest differs between a cold and a warm cache")
    print(f"{op.key} {d} {res.latency_s:.2f} s", flush=True)


def main() -> int:
    run.import_qkclab()
    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK_ROOT))
    digests: dict = {}
    try:
        for workload in ("census-cold", "census-warm"):
            dirs, _ = run.set_up(workload, 0, work / workload)
            for rotated in (False, True):
                record(wl.census_op(rotated, dirs), None, digests)
        dirs, _ = run.set_up("sampled", 0, work / "sampled")
        for target in wl.SAMPLED_TARGETS:
            ideal = wl.sampled_ideal(target, dirs)
            for trial_seed in range(wl.SAMPLED_TRIAL_SEEDS):
                record(wl.sampled_op(target, trial_seed, dirs), ideal, digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wl.REFERENCE_PATH.write_text(
        json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
