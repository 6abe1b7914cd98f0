"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 3-6 score runs that module-scoped fixtures compute once, so
criterion 7 can audit monotonicity over exactly those runs, with or without
the others selected.
"""

from fractions import Fraction
from random import Random

import pytest

from qkclab import (
    CALLC,
    PHASE,
    ROT,
    X,
    StateVector,
    cached_outputs,
    candidate_table,
    classical_state,
    consistency_sweep,
    decode,
    encode,
    enumerate_programs,
    exact_estimate,
    fidelity,
    ideal_value,
    incompressibility_census,
    k_from_bound,
    kraft_sum,
    projection_oracle,
    random_state,
    rotated_basis,
    run,
    sampled_estimate,
    shannon_fano_lengths,
    standard_basis,
    subadditivity_report,
    upper_bound_witness,
)
from qkclab.cli import main
from qkclab.statevec import INFINITE

from oracles import gr, random_gate_list

F = Fraction


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-cache")


def test_criterion_01_prefix_free_and_kraft():
    """Exhaustive over all bit strings of length <= 16 at n = 1, 2: the
    decodable set is prefix-free and sum(2^-l) <= 1, exactly."""
    for n in (1, 2):
        decodable = []
        for length in range(1, 17):
            for v in range(1 << length):
                bits = format(v, f"0{length}b")
                if decode(bits, n) is not None:
                    decodable.append(bits)
        as_set = set(decodable)
        for bits in decodable:
            for cut in range(1, len(bits)):
                assert bits[:cut] not in as_set, f"prefix violation at n={n}"
        total = sum(F(1, 1 << len(bits)) for bits in decodable)
        assert total <= 1, f"Kraft sum {total} exceeds 1 at n={n}"
        # the constructive enumerator must agree with the exhaustive scan
        assert [p.bits for p in enumerate_programs(16, n)] == decodable
        assert kraft_sum(16, n) == total
        print(f"criterion 1 PASS (n={n}): {len(decodable)} programs, Kraft sum {total}")


def test_criterion_02_exact_unit_norm_simulation():
    """10^4 random programs at n <= 3 produce exactly unit-norm rational
    outputs, with no tolerance anywhere."""
    rng = Random(202)
    checked = 0
    for _ in range(10_000):
        n = rng.randrange(1, 4)
        program = encode(random_gate_list(rng, n, 8), n)
        output = run(program, n)
        assert output is not None
        assert output.norm_sq() == F(1)
        checked += 1
    print(f"criterion 2 PASS: {checked} random programs, all outputs exactly unit norm")


@pytest.fixture(scope="module")
def criterion3_runs(cache_dir):
    """(witness program, witness record, estimate) for 200 random targets."""
    n = 2
    outputs = cached_outputs(n, 11, cache_dir)
    rng = Random(303)
    runs = []
    for _ in range(200):
        target = random_state(n, rng)
        witness_prog, witness_rec = upper_bound_witness(target)
        assert witness_prog.length <= outputs.max_len  # the witness is a candidate
        est = exact_estimate(target, outputs)
        runs.append((witness_prog, witness_rec, est))
    return runs


def test_criterion_03_upper_bound_witness(criterion3_runs):
    """200 pseudo-random rational unit targets at n=2: the estimate never
    exceeds witness-program-length + n, witness penalty <= n, and the
    all-fidelities-equal target achieves penalty exactly n."""
    n = 2
    for witness_prog, witness_rec, est in criterion3_runs:
        assert witness_rec.fidelity >= F(1, 1 << n)
        assert witness_rec.penalty <= n
        assert est.best is not None
        assert est.best.total <= witness_prog.length + n
        assert est.best.total <= witness_rec.total
    uniform = StateVector(2, (gr(F(1, 2)),) * 4)
    _, uniform_rec = upper_bound_witness(uniform)
    assert uniform_rec.penalty == n  # the pigeonhole bound is tight here
    print("criterion 3 PASS: 200 targets within witness-length + n; equality case penalty = n")


@pytest.fixture(scope="module")
def criterion4_reports(cache_dir):
    """((basis, n, c, max_len), census report) for every census run."""
    reports = []
    for n in (1, 2, 3):
        for max_len in (10, 12, 14):
            for c in range(1, n + 1):
                report = incompressibility_census(n, c, max_len, cache_dir=cache_dir)
                reports.append((("standard", n, c, max_len), report))
        basis = rotated_basis(n)
        for c in range(1, n + 1):
            report = incompressibility_census(
                n, c, 12, basis=basis, cache_dir=cache_dir, label="rotated"
            )
            reports.append((("rotated", n, c, 12), report))
    return reports


def test_criterion_04_incompressibility_counting(criterion4_reports):
    """#{basis vectors with estimate < n-c} < 2^(n-c) for every n <= 3,
    1 <= c <= n, max_len in {10, 12, 14}, on the standard basis and on one
    ROT/CNOT-rotated basis per n."""
    for key, report in criterion4_reports:
        assert report.verdict, f"census failed at {key}"
    print(f"criterion 4 PASS: {len(criterion4_reports)} census runs, every counting verdict holds")


@pytest.fixture(scope="module")
def criterion5_sweeps(cache_dir):
    return [consistency_sweep(n, 12, cache_dir=cache_dir) for n in (1, 2)]


def test_criterion_05_classical_consistency(criterion5_sweeps):
    """For all classical strings at n <= 2: gap = B - A >= 0, and the maximum
    gap equals the measured constant for this encoding: 0."""
    measured_constant = 0  # frozen from the exhaustive sweep; recorded in README
    worst = 0
    for sweep in criterion5_sweeps:
        for record in sweep.records:
            assert record.exact_program is not None
            assert record.gap is not None and record.gap >= 0
        worst = max(worst, sweep.max_gap)
    assert worst <= measured_constant
    print(f"criterion 5 PASS: all gaps >= 0, max gap {worst} <= recorded constant {measured_constant}")


@pytest.fixture(scope="module")
def criterion6_runs(cache_dir):
    """(exact ideal value, sampled estimates for seeds 0..39) for |00>."""
    n = 2
    target = classical_state("00")
    outputs = cached_outputs(n, 12, cache_dir)
    ideal = ideal_value(target, n, 12, outputs)
    results = [
        sampled_estimate(projection_oracle(target), n, 12, 0.05, 0.25, seed)
        for seed in range(40)
    ]
    return ideal, results


def test_criterion_06_sampled_estimator_one_bit_claim(criterion6_runs):
    """k from k_from_bound(n=2, alpha=0.05, epsilon=0.25); over 40 seeds the
    sampled estimate for |00> exceeds the exact ideal value by at most 1 bit
    in at least 36 runs."""
    ideal, results = criterion6_runs
    k = k_from_bound(2, 0.05, 0.25)
    assert all(result.k == k for result in results)
    assert ideal == pytest.approx(1.0)
    within_one_bit = 0
    for result in results:
        assert result.best is not None
        assert result.best.estimate >= ideal  # approximation from above
        if result.best.estimate <= ideal + 1.0:
            within_one_bit += 1
    assert within_one_bit >= 36
    print(
        f"criterion 6 PASS: k={k}, {within_one_bit}/40 seeds within 1 bit of ideal {ideal}"
    )


def test_criterion_07_anytime_monotonicity(
    criterion3_runs, criterion4_reports, criterion5_sweeps, criterion6_runs
):
    """Every trace recorded by criteria 3-6 is non-increasing."""
    traces = {
        "criterion3": [est.trace for _prog, _rec, est in criterion3_runs],
        "criterion4": [
            e.trace for _key, report in criterion4_reports for e in report.estimates
        ],
        "criterion5": [
            r.estimate.trace for sweep in criterion5_sweeps for r in sweep.records
        ],
        "criterion6": [result.trace for result in criterion6_runs[1]],
    }
    audited = 0
    for name, runs in traces.items():
        assert runs, f"{name} recorded no traces"
        for trace in runs:
            values = [v for _, v in trace]
            assert all(a >= b for a, b in zip(values, values[1:])), name
            audited += 1
    print(f"criterion 7 PASS: {audited} anytime traces, all running minima non-increasing")


def test_criterion_08_shannon_fano_lengths():
    """For 100 random states against the standard basis: each length is the
    least d with fidelity >= 2^-d, sum(2^-length) <= 2 over the finite
    entries, and 2^-length <= fidelity throughout."""
    rng = Random(808)
    for _ in range(100):
        n = rng.randrange(1, 4)
        z = random_state(n, rng)
        basis = standard_basis(n)
        lengths = shannon_fano_lengths(basis, z)
        kraft = F(0)
        for e, length in zip(basis.vectors, lengths):
            q = fidelity(e, z)
            if q == 0:
                assert length == INFINITE
                continue
            # independent re-derivation of "least d with q >= 2^-d"
            d = 0
            while q < F(1, 1 << d):
                d += 1
            assert length == d
            assert F(1, 1 << length) <= q
            kraft += F(1, 1 << length)
        assert kraft <= 2
    print("criterion 8 PASS: 100 random states, lengths minimal and Kraft-style bound holds")


def test_criterion_09_conditional_reuse(cache_dir):
    """Estimating a directly computable target with its own generator as the
    conditional costs at most the fixed CALLC-program length (6 bits),
    independent of the generator's length; it is exactly 6 whenever no
    cheaper unconditional description exists."""
    callc_len = encode([CALLC()], 1).length
    assert callc_len == 6
    rng = Random(909)
    outputs = {1: cached_outputs(1, 12, cache_dir), 2: cached_outputs(2, 12, cache_dir)}

    def sample(n):
        gates = random_gate_list(rng, n, 7)
        generator = encode(gates, n)
        conditional = decode(generator.bits, n, allow_callc=False)
        target = run(generator, n)
        return generator, conditional, target

    def conditional_table(n, conditional):
        return candidate_table(n, 12, conditional, cache_dir)

    # arbitrary random targets obey the exact cap formula
    for i in range(20):
        n = 1 if i % 2 else 2
        generator, conditional, target = sample(n)
        without = exact_estimate(target, outputs[n])
        with_cond = exact_estimate(target, conditional_table(n, conditional))
        assert with_cond.best.total == min(without.best.total, callc_len)
        assert with_cond.best.total <= callc_len

    # rejection-sample targets with no description cheaper than CALLC:
    # for those the estimate equals the constant exactly
    hits = []
    while len(hits) < 20:
        n = 1 if len(hits) % 2 else 2
        generator, conditional, target = sample(n)
        without = exact_estimate(target, outputs[n])
        if without.best.total < callc_len:
            continue
        with_cond = exact_estimate(target, conditional_table(n, conditional))
        assert with_cond.best.total == callc_len
        hits.append(generator.length)
    assert len(set(hits)) >= 3  # generator lengths vary; the constant does not
    print(
        f"criterion 9 PASS: conditional estimates capped at {callc_len} bits "
        f"over generator lengths {sorted(set(hits))}"
    )


def test_criterion_10_subadditivity(cache_dir):
    """20 pairs of directly computable 1-qubit states at max_len 16: slack >= 0
    on every conclusive run, and at most 20% of runs are inconclusive."""
    rng = Random(1010)
    single_gates = [X(0), ROT(0), PHASE(0)]

    def generator(k):
        return encode([rng.choice(single_gates) for _ in range(k)], 1)

    # 16 pairs the 16-bit bound can certify (total gates <= 2), 4 it cannot
    sizes = [(rng.randrange(2), rng.randrange(2)) for _ in range(10)]
    sizes += [(2, 0), (0, 2), (1, 1), (1, 1), (2, 0), (0, 2)]
    sizes += [(3, 0), (2, 2), (3, 1), (2, 3)]
    assert len(sizes) == 20
    inconclusive = 0
    for kx, ky in sizes:
        report = subadditivity_report(generator(kx), generator(ky), 16, cache_dir=cache_dir)
        if not report.conclusive:
            inconclusive += 1
            continue
        assert report.slack is not None and report.slack >= 0
    assert inconclusive <= 4  # 20% of 20
    print(
        f"criterion 10 PASS: {20 - inconclusive} conclusive runs all with slack >= 0, "
        f"{inconclusive}/20 inconclusive"
    )


def test_criterion_11_command_determinism(tmp_path, capsys):
    """Any two runs of any command with identical config and seed produce
    byte-identical serialized outputs (stdout and files)."""
    cache = tmp_path / "cache"
    out_dir = tmp_path / "reports"
    px = encode([ROT(0)], 1)
    px_arg = f"{px.length}:{px.value:x}"
    commands = [
        ["estimate", "--classical", "00", "--n", "2", "--max-len", "10",
         "--cache-dir", str(cache)],
        ["estimate", "--classical", "00", "--n", "2", "--max-len", "10",
         "--sampled", "--seed", "11", "--cache-dir", str(cache)],
        ["estimate", "--classical", "1", "--n", "1", "--max-len", "1"],
        ["census", "--n", "2", "--c", "1", "--max-len", "10", "--cache-dir", str(cache)],
        ["consistency", "--n", "2", "--max-len", "12", "--cache-dir", str(cache)],
        ["subadd", "--px", px_arg, "--py", "1:1", "--max-len", "14",
         "--cache-dir", str(cache)],
        ["enumerate", "--max-len", "8", "--n", "2"],
        ["encode", "--gates", "X:0,CNOT:0:1", "--n", "2"],
        ["decode", "--bits", "0100000", "--n", "2"],
        ["kplan", "--n", "2", "--alpha", "0.05", "--epsilon", "0.25"],
    ]
    checked_files = 0
    for argv in commands:
        writes_files = argv[0] in ("census", "consistency", "subadd")
        if writes_files:
            argv = argv + ["--out-dir", str(out_dir)]
        rc_a = main(argv)
        stdout_a = capsys.readouterr().out
        snapshot = {}
        if writes_files:
            snapshot = {f.name: f.read_bytes() for f in out_dir.iterdir()}
        rc_b = main(argv)  # identical config, seed, and destinations
        stdout_b = capsys.readouterr().out
        assert rc_a == rc_b
        assert stdout_a == stdout_b
        if writes_files:
            rerun = {f.name: f.read_bytes() for f in out_dir.iterdir()}
            assert rerun == snapshot
            checked_files += len(snapshot)
            for f in out_dir.iterdir():
                f.unlink()
    print(
        f"criterion 11 PASS: {len(commands)} commands byte-identical across reruns "
        f"({checked_files} report files compared)"
    )
