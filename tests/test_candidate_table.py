"""The candidate table, and the rows the sampled mode streams, against the
enumerate-then-simulate scan they replaced (the reference_* functions in
oracles.py): every scan must return the same best record, the same trace and
the same scanned count, with and without a cache.  The references read every row, so they also check the scans'
stopping rule; counting oracle calls shows where each scan stopped."""

import json
from fractions import Fraction as F
from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import qkclab.census as census
import qkclab.cli as cli
import qkclab.estimator as estimator
import qkclab.executor as executor
import qkclab.statevec as statevec
from qkclab import (
    CNOT,
    PHASE,
    ROT,
    X,
    StateVector,
    apply_gate,
    cached_outputs,
    candidate_rows,
    candidate_table,
    classical_state,
    consistency_sweep,
    encode,
    exact_estimate,
    ideal_value,
    incompressibility_census,
    k_from_bound,
    program_to_json,
    projection_oracle,
    random_state,
    rotated_basis,
    run,
    sampled_estimate,
    shortest_exact_program,
    standard_basis,
    state_to_json,
    subadditivity_report,
    tensor,
    zero_state,
)

from oracles import (
    Counted,
    CountedKernel,
    gr,
    random_gate_list,
    reference_exact_estimate,
    reference_ideal_value,
    reference_outputs,
    reference_sampled_estimate,
    reference_shortest_exact_program,
)

# (alpha, epsilon): k = 103 at n = 2, cheap enough to rerun every trial on
# both paths
CHEAP_PLAN = (0.5, 0.45)

# |11> with a little |00> or |10>: the best candidate before the 11-bit rows
# scores within a bit of them, so a stopping bound off by one reads too few
# rows (FAINT_00: the empty program wins with penalty 7) or misses the winner
# (FAINT_10: an 11-bit row wins, by less than a bit).
FAINT_00 = StateVector(2, (gr(F(17, 145)), gr(0), gr(0), gr(F(144, 145))))
FAINT_10 = StateVector(2, (gr(0), gr(0), gr(F(9, 41)), gr(F(40, 41))))


def tables(n, max_len, cached, cache_dir):
    """The table under test and the {program: output} dict the reference
    reads, or None.  With a cache, the table is the one read back warm."""
    if not cached:
        return candidate_table(n, max_len), None
    cold = cached_outputs(n, max_len, cache_dir)
    warm = cached_outputs(n, max_len, cache_dir)
    assert warm == cold
    return warm, reference_outputs(n, max_len)


def fixture_targets(n, rng):
    targets = list(standard_basis(n).vectors) + list(rotated_basis(n).vectors)
    targets += [random_state(n, rng) for _ in range(3)]
    # outputs of short programs, so the fidelity-1 scans find something
    targets += [run(encode(random_gate_list(rng, n, 2), n), n) for _ in range(3)]
    if n == 2:
        targets += [FAINT_00, FAINT_10]
    return targets


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
@pytest.mark.parametrize("n, max_len", [(1, 14), (2, 14), (3, 16)])
def test_scans_match_reference(n, max_len, cached, tmp_path):
    table, outputs = tables(n, max_len, cached, tmp_path)
    rng = Random(4100 + n)
    for target in fixture_targets(n, rng):
        est = exact_estimate(target, table)
        assert (est.best, est.trace, est.scanned) == reference_exact_estimate(
            target, n, max_len, outputs=outputs
        )
        assert ideal_value(target, n, max_len, table) == reference_ideal_value(
            target, n, max_len, outputs=outputs
        )
        assert shortest_exact_program(target, table) == reference_shortest_exact_program(
            target, n, max_len, outputs=outputs
        )


def test_fixtures_exercise_every_branch():
    # the scans above must meet exact hits and misses, and repeated outputs
    n, max_len = 2, 14
    targets = fixture_targets(n, Random(4100 + n))
    table = candidate_table(n, max_len)
    found = [shortest_exact_program(t, table) for t in targets]
    assert any(p is not None for p in found) and any(p is None for p in found)
    assert len(table.firsts) < len(candidate_rows(n, max_len))


def test_exact_scans_build_no_output_amplitudes():
    # every exact scan scores on the outputs' integer forms, so a cold
    # table's outputs never build their Fraction amplitudes
    n, max_len = 3, 20
    table = candidate_table(n, max_len)
    for target in standard_basis(n).vectors + rotated_basis(n).vectors:
        exact_estimate(target, table)
        ideal_value(target, n, max_len, table)
        shortest_exact_program(target, table)
    assert all(out._amps is None for _idx, _prog, out in table.firsts)


def test_census_and_sampled_build_no_amplitudes(monkeypatch):
    # the Basis check, the census scores and the sampled oracle all run on
    # the integer forms, so a cold census and a cold sampled estimate leave
    # the Fraction amplitudes of every output, basis vector and target
    # unbuilt, and construct no GaussianRational at all
    outputs = []

    def keep_firsts(build):
        def wrapped(*args, **kwargs):
            table = build(*args, **kwargs)
            outputs.append([out for _idx, _prog, out in table.firsts])
            return table

        return wrapped

    def keep_streamed(build):
        # each row the sampled scan reads from the build's stream
        def wrapped(*args, **kwargs):
            outputs.append([])
            for row, first in build(*args, **kwargs):
                outputs[-1].append(row[2])
                yield row, first

        return wrapped

    monkeypatch.setattr(census, "candidate_table", keep_firsts(census.candidate_table))
    monkeypatch.setattr(estimator, "_build", keep_streamed(estimator._build))
    constructed = Counted(statevec.GaussianRational)
    monkeypatch.setattr(statevec, "GaussianRational", constructed)
    basis = rotated_basis(3)
    incompressibility_census(3, 1, 12, basis=basis)
    targets = [classical_state(bits) for bits in ("00", "01", "10", "11")]
    targets += rotated_basis(2).vectors
    for target in targets:
        sampled_estimate(projection_oracle(target), 2, 8, 0.05, 0.25, seed=0)
    assert constructed.calls == 0
    assert len(outputs) == 1 + len(targets)
    outputs = [out for built in outputs for out in built]
    assert all(state._amps is None for state in outputs + list(basis.vectors) + targets)
    assert len(zero_state(1).amps) == 2  # the count does see a construction
    assert constructed.calls == 2


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_consistency_sweep_matches_reference(cached, tmp_path):
    n, max_len = 2, 12
    _table, outputs = tables(n, max_len, cached, tmp_path)
    sweep = consistency_sweep(n, max_len, cache_dir=tmp_path if cached else None)
    for record in sweep.records:
        target = classical_state(record.bits)
        est = record.estimate
        assert (est.best, est.trace, est.scanned) == reference_exact_estimate(
            target, n, max_len, outputs=outputs
        )
        assert record.exact_program == reference_shortest_exact_program(
            target, n, max_len, outputs=outputs
        )


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_conditional_subadditivity_matches_reference(cached, tmp_path):
    max_len = 14
    cache_dir = tmp_path if cached else None
    outputs = {m: reference_outputs(m, max_len) if cached else None for m in (1, 2)}
    for gx, gy in (([ROT(0)], [X(0)]), ([ROT(0), PHASE(0)], [ROT(0)]), ([], [X(0), ROT(0)])):
        p_x, p_y = encode(gx, 1), encode(gy, 1)
        report = subadditivity_report(p_x, p_y, max_len, cache_dir=cache_dir)
        x, y = run(p_x, 1), run(p_y, 1)
        expected = {
            "joint": reference_exact_estimate(tensor(x, y), 2, max_len, outputs=outputs[2]),
            "conditional": reference_exact_estimate(
                x, 1, max_len, conditional=p_y, outputs=outputs[1]
            ),
            "unconditional_y": reference_exact_estimate(y, 1, max_len, outputs=outputs[1]),
        }
        for term, reference in expected.items():
            est = getattr(report, term)
            assert (est.best, est.trace, est.scanned) == reference, term


def sampled_report(target, seed, tmp_path):
    """(best, trace) of `estimate --sampled --cache-dir` on a warm cache, in
    the report's JSON form."""
    n, max_len = 2, 12
    cached_outputs(n, max_len, tmp_path / "cache")
    statefile, out = tmp_path / "target.json", tmp_path / "estimate.json"
    statefile.write_text(json.dumps(state_to_json(target)))
    argv = ["estimate", "--sampled", "--n", str(n), "--max-len", str(max_len),
            "--alpha", str(CHEAP_PLAN[0]), "--epsilon", str(CHEAP_PLAN[1]),
            "--statefile", str(statefile), "--seed", str(seed), "--out", str(out),
            "--cache-dir", str(tmp_path / "cache")]
    assert cli.main(argv) == 0
    report = json.loads(out.read_text())
    return report["best"], report["trace"]


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_sampled_estimate_matches_reference(cached, tmp_path):
    # the sampled mode reads no cache: with one, the command must still
    # build its rows and draw the reference's trials
    n, max_len = 2, 12
    targets = [classical_state("01"), apply_gate(zero_state(2), ROT(1)), FAINT_10]
    for target in targets:
        for seed in range(4):
            measure = projection_oracle(target)
            best, trace = reference_sampled_estimate(measure, n, max_len, *CHEAP_PLAN, seed)
            if not cached:
                result = sampled_estimate(measure, n, max_len, *CHEAP_PLAN, seed)
                assert (result.best, result.trace) == (best, trace)
                continue
            assert sampled_report(target, seed, tmp_path) == (
                {"program": program_to_json(best.program), "m": best.m, "k": best.k,
                 "estimate": best.estimate},
                [[idx, est] for idx, est in trace],
            )


@pytest.mark.parametrize("n, max_len", [(2, 14), (3, 16)])
def test_exact_estimate_stops_at_the_first_row_that_cannot_win(n, max_len, monkeypatch):
    table = candidate_table(n, max_len)
    targets = fixture_targets(n, Random(4100 + n))
    stops_after_row_0 = 0
    for target in targets:
        best, _trace, _scanned = reference_exact_estimate(target, n, max_len)
        # every row up to the winner, and every later row shorter than its
        # total; every row if nothing has positive fidelity
        expected = sum(
            1
            for _idx, prog, _out in table.firsts
            if best is None
            or prog.length < best.total
            or (prog.length, prog.value) <= (best.length, best.program.value)
        )
        kernel = CountedKernel(estimator.fidelity_to)
        monkeypatch.setattr(estimator, "fidelity_to", kernel)
        assert exact_estimate(target, table).best == best
        monkeypatch.undo()
        assert (kernel.binds, kernel.calls) == (1, expected)
        stops_after_row_0 += expected == 1
    assert stops_after_row_0  # |0...0> is won by the empty program, row 0


def test_sampled_estimate_stops_at_the_first_row_that_cannot_win():
    n, max_len = 2, 12
    k = k_from_bound(n, *CHEAP_PLAN)
    rows = candidate_rows(n, max_len)
    targets = [classical_state(b) for b in ("00", "01", "10", "11")]
    targets.append(apply_gate(zero_state(2), ROT(1)))
    for seed, target in enumerate(targets):
        best, _trace = reference_sampled_estimate(
            projection_oracle(target), n, max_len, *CHEAP_PLAN, seed
        )
        measure = Counted(projection_oracle(target))
        result = sampled_estimate(measure, n, max_len, *CHEAP_PLAN, seed)
        assert result.best == best
        shorter = sum(1 for _idx, prog, _out in rows if prog.length < best.estimate)
        assert measure.calls == k * shorter
        if target == classical_state("00"):
            assert shorter == 1  # won by the empty program, row 0


# |1000> with a little |0000>: at seeds 0-2 the empty program scores above 8,
# so the scan reads the 8-bit rows, and X(0) among them wins
FAINT_0000 = StateVector(
    4, tuple(gr(F(31, 481) if i == 0 else F(480, 481) if i == 8 else 0) for i in range(16))
)


def test_the_stream_scores_as_the_listed_rows():
    # the sampled scan on the build's stream against the same trials on
    # the whole list of rows, built first
    n, max_len = 4, 24
    alpha, epsilon = 0.05, 0.25
    k = k_from_bound(n, alpha, epsilon)
    rows = candidate_rows(n, max_len)
    read = set()
    for target in (classical_state("0000"), rotated_basis(n).vectors[0], FAINT_0000):
        for seed in range(3):
            result = sampled_estimate(
                projection_oracle(target), n, max_len, alpha, epsilon, seed
            )
            measure = Counted(projection_oracle(target))
            listed = estimator._run_trials(rows, measure, k, epsilon, seed)
            assert (result.best, result.trace) == listed
            read.add(measure.calls // k)
    assert read == {1, 13}  # the faint target reads the 8-bit rows


def test_the_stream_stops_the_build_where_the_scan_stops(monkeypatch):
    # at (4, 28) the full build has 118,105 rows; |0000> is won by the empty
    # program, so the scan stops at the next row, the one gate step taken
    steps = Counted(executor.apply_gate)
    monkeypatch.setattr(executor, "apply_gate", steps)
    k = k_from_bound(4, 0.05, 0.25)
    measure = Counted(projection_oracle(classical_state("0000")))
    result = sampled_estimate(measure, 4, 28, 0.05, 0.25, seed=0)
    assert result.best.program.bits == "1" and result.best.m == k
    assert (steps.calls, measure.calls) == (1, k)


def test_scans_with_no_finite_estimate_read_every_row(monkeypatch):
    target = classical_state("1")  # orthogonal to |0>, the only output at n=1, max_len=1
    table = candidate_table(1, 1)
    kernel = CountedKernel(estimator.fidelity_to)
    monkeypatch.setattr(estimator, "fidelity_to", kernel)
    est = exact_estimate(target, table)
    monkeypatch.undo()
    assert (est.best, est.trace, est.scanned) == reference_exact_estimate(target, 1, 1)
    assert est.best is None and kernel.calls == len(table.firsts)
    measure = Counted(projection_oracle(target))
    result = sampled_estimate(measure, 1, 1, *CHEAP_PLAN, 0)
    assert result.best is None and result.trace == []
    assert measure.calls == k_from_bound(1, *CHEAP_PLAN) * len(candidate_rows(1, 1))
    # more rows, and every trial fails
    never = Counted(lambda prog, out, rng: False)
    result = sampled_estimate(never, 2, 12, *CHEAP_PLAN, 0)
    assert result.best is None and result.trace == []
    assert never.calls == k_from_bound(2, *CHEAP_PLAN) * len(candidate_rows(2, 12))


@lru_cache(maxsize=None)
def table_and_reference_outputs(n, max_len):
    return candidate_table(n, max_len), reference_outputs(n, max_len)


def gates(n):
    q = st.integers(0, n - 1)
    single = st.one_of(st.builds(X, q), st.builds(ROT, q), st.builds(PHASE, q))
    if n == 1:
        return single
    cnot = st.permutations(range(n)).map(lambda p: CNOT(p[0], p[1]))
    return st.one_of(single, cnot)


@st.composite
def scan_cases(draw):
    n = draw(st.sampled_from((1, 2)))
    max_len = draw(st.integers(1, 12))
    if draw(st.booleans()):
        target = random_state(n, Random(draw(st.integers(0, 2**32 - 1))))
    else:
        target = run(encode(draw(st.lists(gates(n), max_size=3)), n), n)
    return n, max_len, target, draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(scan_cases())
def test_stopping_scans_match_the_full_scans(case):
    n, max_len, target, seed = case
    table, outputs = table_and_reference_outputs(n, max_len)
    est = exact_estimate(target, table)
    assert (est.best, est.trace, est.scanned) == reference_exact_estimate(
        target, n, max_len, outputs=outputs
    )
    assert ideal_value(target, n, max_len, table) == reference_ideal_value(
        target, n, max_len, outputs=outputs
    )
    measure = projection_oracle(target)
    result = sampled_estimate(measure, n, max_len, *CHEAP_PLAN, seed)
    assert (result.best, result.trace) == reference_sampled_estimate(
        measure, n, max_len, *CHEAP_PLAN, seed, outputs=outputs
    )


@pytest.mark.parametrize("scan", ["ideal_value"])
def test_scans_reject_a_table_built_for_other_arguments(scan):
    # ideal_value alone still takes (n, max_len) beside its table; the other
    # scans read both, and the conditional, off the table they are given
    target = classical_state("01")
    conditional = encode([X(0)], 2)
    assert ideal_value(target, 2, 10, candidate_table(2, 10)) is not None
    mismatched = (
        candidate_table(1, 10),  # another n
        candidate_table(3, 10),
        candidate_table(2, 8),  # another max_len
        candidate_table(2, 12),
        candidate_table(2, 10, conditional),  # another conditional
    )
    for table in mismatched:
        with pytest.raises(ValueError, match="candidate table"):
            ideal_value(target, 2, 10, table)


def test_scans_build_no_table(monkeypatch):
    # every scan reads the table it is given, its conditional included, and
    # builds none of its own
    target = classical_state("11")
    conditional = encode([X(0)], 2)
    table, with_conditional = candidate_table(2, 12), candidate_table(2, 12, conditional)

    def no_build(*args):
        raise AssertionError("a scan built a table")

    monkeypatch.setattr(executor, "_build", no_build)
    est = exact_estimate(target, table)
    assert (est.best.total, est.scanned) == (11, 87)
    assert exact_estimate(target, with_conditional).best.total == 10  # X(1), then CALLC
    assert ideal_value(target, 2, 12, table) == 11
    assert shortest_exact_program(target, table) == encode([X(0), X(1)], 2)
    with pytest.raises(AssertionError, match="built a table"):
        candidate_table(2, 12)
