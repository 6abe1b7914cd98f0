"""qkclab benchmark: times the user-facing commands on one workload and
checks every op's report.

    python3 perfbench/run.py --workload census-cold --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; qkclab is imported from ``src/``.
All load comes from this one process and thread: each op is an in-process
``qkclab.cli.main(argv)`` call, timed from the call to its return, report
writing included.  Ops run back to back (a closed loop with one client).

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run (see
tracer.py).  Human-readable lines come before it.
"""

import time

_T0 = time.perf_counter()  # set-up clock of a --setup-only child

import argparse
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stdout, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / "_work"
TRACE_DIR = HERE / "_traces"
CACHE_ENV_VAR = "QKCLAB_CACHE_DIR"

SETUP_REPS = 5  # set-ups per run; setup_s is their median
MIN_OPS = 3  # untraced runs time at least this many ops

import workloads as wl  # noqa: E402  (sibling module; needs nothing above)
from tracer import TIMED, Tracer  # noqa: E402


def import_qkclab():
    """Import qkclab from this checkout's sources, never from elsewhere."""
    if not (SRC / "qkclab" / "cli.py").is_file():
        sys.exit(f"perfbench: no qkclab sources under {SRC}")
    # The variable overrides --cache-dir and would turn census-cold warm.
    os.environ.pop(CACHE_ENV_VAR, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qkclab.cli
    import qkclab.estimator
    import qkclab.executor

    if not Path(qkclab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported qkclab from {qkclab.__file__}, not {SRC}")
    return qkclab


def set_up(workload: str, seed: int, work_dir: Path) -> tuple[wl.Dirs, wl.OpStream]:
    """Everything before the first timed op: fresh dirs, the generated op
    inputs and, for census-warm and sampled, the cold cache build."""
    import_qkclab()
    dirs = wl.run_dirs(workload, work_dir)
    for d in (dirs.out_dir, dirs.cache_dir):
        if d is not None:
            Path(d).mkdir(parents=True)
    stream = wl.OpStream(workload, seed, dirs)
    stream.op(0)
    wl.build_cache(workload, dirs)
    return dirs, stream


def timed_setups(workload: str, seed: int, work: Path) -> tuple[list[float], Path]:
    """SETUP_REPS set-ups, each in a fresh interpreter so imports are paid in
    full; returns their times and the directory of the last one, whose cache
    the timed ops then use."""
    times = []
    for rep in range(SETUP_REPS):
        rep_dir = work / f"setup{rep}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed), "--work-dir", str(rep_dir)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up {rep} failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times, rep_dir


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    op: wl.Op
    latency_s: float
    simulations: Optional[int]  # executor.simulation_count() delta
    stdout: str
    report: Optional[dict] = None
    report_bytes: int = 0
    run_calls: Optional[int] = None  # traced runs: executor.run wrapper calls
    errors: list = field(default_factory=list)


def simulation_count() -> Optional[int]:
    """executor.simulation_count(), or None if the program no longer has it."""
    counter = getattr(sys.modules["qkclab.executor"], "simulation_count", None)
    return None if counter is None else counter()


def run_op(op: wl.Op, tracer: Optional[Tracer] = None) -> OpResult:
    """One timed cli.main call; a nonzero exit, an exception or an unreadable
    report fails the op."""
    cli = sys.modules["qkclab.cli"]
    buf = io.StringIO()
    sims_before = simulation_count()
    runs_before = tracer.calls["executor.run"] if tracer else None
    failure = None
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code
    except Exception:  # an op that raises is a failed op; keep measuring
        rc, failure = None, traceback.format_exc()
    latency = time.perf_counter() - start
    sims = simulation_count()
    result = OpResult(op, latency, None if sims is None else sims - sims_before,
                      buf.getvalue())
    if tracer is not None:
        tracer.end_op()
        result.run_calls = tracer.calls["executor.run"] - runs_before
    if failure is not None:
        sys.stderr.write(failure)
        result.errors.append(failure.strip().splitlines()[-1])
    elif rc != 0:
        result.errors.append(f"exit code {rc}")
    else:
        try:
            result.report = json.loads(wl.report_text(op, result.stdout))
            result.report_bytes = len(result.stdout) + _written_bytes(op, result.stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            result.errors.append(f"unreadable report: {exc!r}")
    return result


def _written_bytes(op: wl.Op, stdout: str) -> int:
    """Bytes of the report files the op wrote."""
    if op.report is not None:
        return Path(op.report).stat().st_size
    return sum(Path(f).stat().st_size for f in json.loads(stdout)["files"])


def run_ops(stream: wl.OpStream, seconds: float, min_ops: int) -> list[OpResult]:
    """Run ops 0, 1, ... until at least `min_ops` have run and the next op,
    at the mean latency so far, would end after `seconds` of timed work."""
    results: list[OpResult] = []
    busy = 0.0
    while len(results) < min_ops or busy * (1 + 1 / len(results)) <= seconds:
        res = run_op(stream.op(len(results)))
        busy += res.latency_s
        results.append(res)
        print(
            f"op {len(results):3d} {res.op.key:<18} {res.latency_s:8.3f} s"
            f"  simulations={res.simulations}", flush=True,
        )
    return results


def check(results: list[OpResult], dirs: wl.Dirs) -> None:
    """Add to each result's `errors`: a reference digest mismatch (when a
    digest is recorded for the op) and the seed-independent invariants."""
    reference = wl.load_reference()
    ideals: dict = {}
    for res in results:
        if res.report is None:
            continue  # already failed in run_op
        expected = reference.get(res.op.key)
        if expected is not None and wl.digest(res.report) != expected:
            res.errors.append("report digest differs from the reference")
        ideal = None
        if res.report.get("kind") == "estimate":
            target = res.report["target"]["classical"]
            if target not in ideals:
                ideals[target] = wl.sampled_ideal(target, dirs)
            ideal = ideals[target]
        res.errors += wl.invariant_errors(res.report, ideal)


def report_failures(results: list[OpResult]) -> None:
    for i, res in enumerate(results, start=1):
        for err in res.errors:
            print(f"FAILED op {i} {res.op.key}: {err}", flush=True)


def work_counts(results: list[OpResult]) -> dict[str, list]:
    """Distinct simulation_count() deltas per kind of op; a single value per
    kind when the count repeats exactly."""
    counts: dict[str, set] = {}
    for res in results:
        kind = res.op.key if res.op.key.startswith("census") else "sampled"
        counts.setdefault(kind, set()).add(res.simulations)
    return {k: sorted(v, key=str) for k, v in counts.items()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def untraced_run(args, work: Path) -> dict:
    setup_times, setup_dir = timed_setups(args.workload, args.seed, work)
    dirs = wl.run_dirs(args.workload, setup_dir)
    stream = wl.OpStream(args.workload, args.seed, dirs)
    results = run_ops(stream, args.seconds, MIN_OPS)
    check(results, dirs)
    report_failures(results)

    latencies = [r.latency_s for r in results]
    failed = sum(1 for r in results if r.errors)
    done = sum(r.op.targets for r in results if not r.errors)
    metrics = {
        "targets_per_s": metric(done / sum(latencies), "1/s"),
        "op_p50_s": metric(statistics.median(latencies), "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    print(
        f"summary: {len(results)} ops in {sum(latencies):.3f} s timed, "
        f"op_p50_s over {len(latencies)} samples, error_rate {failed}/{len(results)}, "
        f"setup_s median of {len(setup_times)}: "
        + " ".join(f"{t:.4f}" for t in setup_times),
        flush=True,
    )
    print(f"work counts (simulations per op): {json.dumps(work_counts(results))}")
    return {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": metrics}


def traced_run(args, work: Path) -> dict:
    cycle = wl.cycle_length(args.workload)

    setup_tracer = Tracer().prepare()
    setup_tracer.install()
    try:
        dirs, stream = set_up(args.workload, args.seed, work / "traced")
    finally:
        setup_tracer.uninstall()

    # Untraced and traced cycles alternate on the same ops, so the tracing
    # overhead is measured against neighbours that share the host's drift.
    tracer = Tracer().prepare()
    baseline: list[OpResult] = []
    traced: list[OpResult] = []
    busy = 0.0
    while not traced or busy * (1 + 2 * cycle / len(baseline + traced)) <= args.seconds:
        first = len(traced)
        for results, active in ((baseline, None), (traced, tracer)):
            if active:
                active.install()
            try:
                for i in range(first, first + cycle):
                    res = run_op(stream.op(i), active)
                    busy += res.latency_s
                    results.append(res)
                    print(
                        f"op {i + 1:3d} {res.op.key:<18} {res.latency_s:8.3f} s  "
                        f"{'traced' if active else 'untraced'}", flush=True,
                    )
            finally:
                if active:
                    active.uninstall()

    check(baseline + traced, dirs)
    for res, base in zip(traced, baseline):
        if res.report is not None and base.report is not None:
            if wl.digest(res.report) != wl.digest(base.report):
                res.errors.append("traced report digest differs from the untraced one")
        if res.simulations is not None:
            if res.run_calls != res.simulations:
                res.errors.append(
                    f"executor.run.calls {res.run_calls} != simulation_count delta "
                    f"{res.simulations}"
                )
            if res.simulations != base.simulations:
                res.errors.append(
                    f"work count {res.simulations} differs from the untraced "
                    f"{base.simulations}"
                )
    report_failures(baseline + traced)

    trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.tsv.gz"
    setup_tracer.write(trace_path, "setup")
    tracer.write(trace_path, "ops", mode="at")
    print(f"spans written to {trace_path.relative_to(ROOT)}", flush=True)

    metrics = layer_metrics(tracer, traced, baseline, cycle)
    metrics.update(setup_metrics(setup_tracer))
    all_ops = baseline + traced
    failed = sum(1 for r in all_ops if r.errors)
    return {"correct": failed == 0, "attempted": len(all_ops), "failed": failed,
            "metrics": metrics}


def layer_metrics(tracer: Tracer, traced: list, baseline: list, cycle: int) -> dict:
    """Per-op means over whole traced cycles, so counts repeat exactly.
    The tracing overhead is the median over (untraced, traced) cycle pairs."""
    ops = len(traced)
    calls = tracer.calls
    self_s = tracer.self_seconds()
    m = {}
    for name in TIMED:
        m[f"{name}.calls"] = metric(calls[name] / ops, "calls/op")
        m[f"{name}.self_s"] = metric(self_s[name] / ops, "s/op")
        m[f"{name}.us_per_call"] = metric(
            self_s[name] / calls[name] * 1e6 if calls[name] else 0.0, "us")

    def ratio(num: str, den: str) -> float:
        return calls[num] / calls[den] if calls[den] else 0.0

    def per_op(name: str, unit: str = "count/op") -> dict:
        return metric(calls[name] / ops, unit)

    m["statevec.fidelity.distinct_ratio"] = metric(
        ratio("statevec.fidelity.distinct", "statevec.fidelity"), "ratio")
    m["proglang.enumerate_programs.programs"] = per_op("proglang.enumerate_programs.items")
    m["proglang.decode.failed"] = per_op("proglang.decode.failed")
    m["executor.run.decode_failed"] = per_op("executor.run.decode_failed")
    m["executor.run.useful_ratio"] = metric(
        ratio("executor.run.distinct_outputs", "executor.run"), "ratio")
    m["executor.cache.hits"] = per_op("executor.cache.hits")
    m["executor.cache.misses"] = per_op("executor.cache.misses")
    m["executor.cache.bytes"] = per_op("executor.cache.bytes", "B/op")
    m["executor.simulations"] = metric(
        sum(r.simulations or 0 for r in baseline) / len(baseline), "count/op")
    m["estimator.exact_estimate.candidates"] = per_op("estimator.exact_estimate.candidates")
    m["estimator.trials"] = per_op("estimator.measure")
    m["estimator.measure.self_s"] = metric(self_s["estimator.measure"] / ops, "s/op")
    m["cli.report_bytes"] = metric(sum(r.report_bytes for r in traced) / ops, "B/op")

    pairs = [
        (sum(r.latency_s for r in baseline[i:i + cycle]),
         sum(r.latency_s for r in traced[i:i + cycle]))
        for i in range(0, ops, cycle)
    ]
    untraced_wall = statistics.median(u for u, _t in pairs)
    overhead = statistics.median(t - u for u, t in pairs)
    m["trace.overhead_ratio"] = metric(overhead / untraced_wall, "ratio")
    m["trace.overhead_s"] = metric(overhead / cycle, "s/op")
    return m


def setup_metrics(tracer: Tracer) -> dict:
    """The cold cache build of census-warm and sampled, traced once."""
    self_s = tracer.self_seconds()
    return {
        "setup.executor.cached_outputs.self_s": metric(
            self_s["executor.cached_outputs"], "s"),
        "setup.executor.run.calls": metric(tracer.calls["executor.run"], "count"),
        "setup.statevec.apply_gate.calls": metric(
            tracer.calls["statevec.apply_gate"], "count"),
        "setup.statevec.apply_gate.self_s": metric(self_s["statevec.apply_gate"], "s"),
        "setup.executor.cache.bytes": metric(tracer.calls["executor.cache.bytes"], "B"),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="timed work per run; whole ops, stopping before an overrun")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work-dir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its work dir (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.setup_only:
        set_up(args.workload, args.seed, Path(args.work_dir))
        print(f"{time.perf_counter() - _T0:.9f}")
        return 0
    qkclab = import_qkclab()
    if args.workload.startswith("census"):
        size = f"n={wl.CENSUS_N} max_len={wl.CENSUS_MAX_LEN}"
    else:
        k = qkclab.estimator.k_from_bound(
            wl.SAMPLED_N, float(wl.SAMPLED_ALPHA), float(wl.SAMPLED_EPSILON))
        size = f"n={wl.SAMPLED_N} max_len={wl.SAMPLED_MAX_LEN} k={k}"
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: {size}; python {platform.python_version()}, "
        f"{os.cpu_count()} cores",
        flush=True,
    )
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        result = (traced_run if args.trace else untraced_run)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
