"""The benchmark's workloads: the argv of every op, the set-up each needs,
and the correctness checks applied to each op's report.

An op is one in-process ``qkclab.cli.main(argv)`` call.  Ops come in cycles:
a census cycle is the standard-basis command followed by the rotated-basis
command; a sampled cycle is a single estimate command.  The census inputs
are fixed by the paper's experiment (n=3, c=1, max_len=20), so the workload
seed changes nothing there.  In ``sampled`` the seed draws each op's
classical target and trial seed from a fixed pool, so every op of every
workload seed has a reference digest in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

WORKLOADS = ("census-cold", "census-warm", "sampled")

CENSUS_N, CENSUS_C, CENSUS_MAX_LEN = 3, 1, 20
SAMPLED_N, SAMPLED_MAX_LEN = 2, 12
SAMPLED_ALPHA, SAMPLED_EPSILON = "0.05", "0.25"
SAMPLED_TARGETS = ("00", "01", "10", "11")
SAMPLED_TRIAL_SEEDS = 16  # trial seeds 0..15: 64 (target, seed) pairs in all

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Op:
    key: str  # reference-digest key, e.g. "census/rotated" or "sampled/01/7"
    argv: tuple[str, ...]
    targets: int  # target states fully estimated by this op
    report: Optional[str]  # --out path, or None when stdout names the files


@dataclass(frozen=True)
class Dirs:
    cache_dir: Optional[str]
    out_dir: str


def cycle_length(workload: str) -> int:
    return 2 if workload.startswith("census") else 1


def census_op(rotated: bool, dirs: Dirs) -> Op:
    argv = [
        "census", "--n", str(CENSUS_N), "--c", str(CENSUS_C),
        "--max-len", str(CENSUS_MAX_LEN), "--out-dir", dirs.out_dir,
    ]
    if rotated:
        argv.append("--rotated")
    if dirs.cache_dir is not None:
        argv += ["--cache-dir", dirs.cache_dir]
    key = "census/rotated" if rotated else "census/standard"
    return Op(key, tuple(argv), 1 << CENSUS_N, None)


def sampled_op(target: str, trial_seed: int, dirs: Dirs) -> Op:
    out = str(Path(dirs.out_dir) / "estimate.json")
    argv = (
        "estimate", "--sampled", "--n", str(SAMPLED_N),
        "--max-len", str(SAMPLED_MAX_LEN), "--alpha", SAMPLED_ALPHA,
        "--epsilon", SAMPLED_EPSILON, "--cache-dir", dirs.cache_dir,
        "--classical", target, "--seed", str(trial_seed), "--out", out,
    )
    return Op(f"sampled/{target}/{trial_seed}", argv, 1, out)


class OpStream:
    """The op sequence of one workload and seed; op(i) is deterministic."""

    def __init__(self, workload: str, seed: int, dirs: Dirs):
        self.workload = workload
        self.dirs = dirs
        self._draws: list[tuple[str, int]] = []
        self._rng = random.Random(f"perfbench:{workload}:{seed}")

    def op(self, i: int) -> Op:
        if self.workload.startswith("census"):
            return census_op(i % 2 == 1, self.dirs)
        while len(self._draws) <= i:
            self._draws.append(
                (self._rng.choice(SAMPLED_TARGETS), self._rng.randrange(SAMPLED_TRIAL_SEEDS))
            )
        target, trial_seed = self._draws[i]
        return sampled_op(target, trial_seed, self.dirs)


def run_dirs(workload: str, work_dir: Path) -> Dirs:
    """The cache and output dirs of one run, under its own fresh work dir;
    census-cold has no cache dir."""
    cache = None if workload == "census-cold" else str(work_dir / "cache")
    return Dirs(cache, str(work_dir / "out"))


def build_cache(workload: str, dirs: Dirs) -> None:
    """The cold cache build that census-warm and sampled ops then read."""
    from qkclab import executor

    if workload == "census-warm":
        executor.cached_outputs(CENSUS_N, CENSUS_MAX_LEN, dirs.cache_dir)
    elif workload == "sampled":
        executor.cached_outputs(SAMPLED_N, SAMPLED_MAX_LEN, dirs.cache_dir)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def report_text(op: Op, stdout: str) -> str:
    """The op's report JSON: the --out record, or the census report file
    named first in the command's stdout summary."""
    if op.report is not None:
        return Path(op.report).read_text()
    return Path(json.loads(stdout)["files"][0]).read_text()


def digest(report: dict) -> str:
    """sha256 of the report without its config object, which carries the
    run's temporary cache_dir and out_dir paths."""
    body = {k: v for k, v in report.items() if k != "config"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE_PATH.read_text())["digests"]


def _nonincreasing(values: list) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def invariant_errors(report: dict, ideal: Optional[float]) -> list[str]:
    """Seed-independent checks: the census verdict holds, traces never
    increase, and a sampled estimate is at least the exact ideal value."""
    errors = []
    if report.get("kind") == "census":
        if not (report["verdict"] and report["count_below"] < report["bound"]):
            errors.append("census verdict does not hold")
        if len(report["vectors"]) != 1 << report["n"]:
            errors.append("census does not cover the whole basis")
        for vec in report["vectors"]:
            if not _nonincreasing([total for _idx, total in vec["trace"]]):
                errors.append(f"trace of vector {vec['index']} increases")
    elif report.get("kind") == "estimate":
        if report["status"] != "ok" or report["best"] is None:
            errors.append("no finite sampled estimate")
        elif ideal is None or report["best"]["estimate"] < ideal:
            errors.append(f"sampled estimate below the exact ideal value {ideal}")
        if not _nonincreasing([est for _idx, est in report["trace"]]):
            errors.append("sampled trace increases")
    else:
        errors.append(f"unexpected report kind {report.get('kind')!r}")
    return errors


def sampled_ideal(target: str, dirs: Dirs) -> Optional[float]:
    """Exact ideal value min_p l(p) - log2 fidelity for a classical target."""
    from qkclab import estimator, executor, statevec

    outputs = executor.cached_outputs(SAMPLED_N, SAMPLED_MAX_LEN, dirs.cache_dir)
    return estimator.ideal_value(
        statevec.classical_state(target), SAMPLED_N, SAMPLED_MAX_LEN, outputs=outputs
    )
