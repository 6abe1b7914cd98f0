"""The candidate table against the enumerate-then-simulate scan it replaced
(the reference_* functions in oracles.py): every scan must return the same
best record, the same trace and the same scanned count, with and without a
cache."""

from random import Random

import pytest

from qkclab import (
    PHASE,
    ROT,
    X,
    SamplingPlan,
    apply_gate,
    cached_outputs,
    candidate_table,
    classical_state,
    consistency_sweep,
    decode,
    directly_computable,
    encode,
    exact_estimate,
    ideal_value,
    projection_oracle,
    random_state,
    rotated_basis,
    run,
    sampled_estimate,
    shortest_exact_program,
    standard_basis,
    subadditivity_report,
    tensor,
    zero_state,
)

from oracles import (
    random_gate_list,
    reference_directly_computable,
    reference_exact_estimate,
    reference_ideal_value,
    reference_outputs,
    reference_sampled_estimate,
    reference_shortest_exact_program,
)

# k = 103 at n = 2: cheap enough to rerun every trial on both paths
CHEAP_PLAN = SamplingPlan.for_dimension(2, 0.5, 0.45)


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
    targets += [run(encode(random_gate_list(rng, n, 2), n), n).output for _ in range(3)]
    return targets


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
@pytest.mark.parametrize("n, max_len", [(1, 14), (2, 14), (3, 16)])
def test_scans_match_reference(n, max_len, cached, tmp_path):
    table, outputs = tables(n, max_len, cached, tmp_path)
    rng = Random(4100 + n)
    for target in fixture_targets(n, rng):
        est = exact_estimate(target, n, max_len, outputs=table)
        assert (est.best, est.trace, est.scanned) == reference_exact_estimate(
            target, n, max_len, outputs=outputs
        )
        assert ideal_value(target, n, max_len, outputs=table) == reference_ideal_value(
            target, n, max_len, outputs=outputs
        )
        assert directly_computable(
            target, n, max_len, outputs=table
        ) == reference_directly_computable(target, n, max_len, outputs=outputs)
        assert shortest_exact_program(
            target, n, max_len, outputs=table
        ) == reference_shortest_exact_program(target, n, max_len, outputs=outputs)


def test_fixtures_exercise_every_branch():
    # the scans above must meet exact hits and misses, and repeated outputs
    n, max_len = 2, 14
    targets = fixture_targets(n, Random(4100 + n))
    found = [shortest_exact_program(t, n, max_len) for t in targets]
    assert any(p is not None for p in found) and any(p is None for p in found)
    table = candidate_table(n, max_len)
    assert len(table.firsts) < len(table.rows)


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
        x, y = run(p_x, 1).output, run(p_y, 1).output
        dy = decode(p_y.bits, 1, allow_callc=False)
        expected = {
            "joint": reference_exact_estimate(tensor(x, y), 2, max_len, outputs=outputs[2]),
            "conditional": reference_exact_estimate(
                x, 1, max_len, conditional=dy, outputs=outputs[1]
            ),
            "unconditional_y": reference_exact_estimate(y, 1, max_len, outputs=outputs[1]),
        }
        for term, reference in expected.items():
            est = getattr(report, term)
            assert (est.best, est.trace, est.scanned) == reference, term


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_sampled_estimate_matches_reference(cached, tmp_path):
    n, max_len = 2, 12
    table, outputs = tables(n, max_len, cached, tmp_path)
    targets = [classical_state("01"), apply_gate(zero_state(2), ROT(1))]
    for target in targets:
        for seed in range(4):
            measure = projection_oracle(target)
            result = sampled_estimate(measure, n, CHEAP_PLAN, max_len, seed, outputs=table)
            assert (result.best, result.trace) == reference_sampled_estimate(
                measure, n, CHEAP_PLAN, max_len, seed, outputs=outputs
            )


SCANS = {
    "exact_estimate": lambda t, n, m, table: exact_estimate(t, n, m, outputs=table),
    "ideal_value": lambda t, n, m, table: ideal_value(t, n, m, outputs=table),
    "directly_computable": lambda t, n, m, table: directly_computable(t, n, m, outputs=table),
    "shortest_exact_program": lambda t, n, m, table: shortest_exact_program(
        t, n, m, outputs=table
    ),
    "sampled_estimate": lambda t, n, m, table: sampled_estimate(
        projection_oracle(t), n, CHEAP_PLAN, m, 0, outputs=table
    ),
}


@pytest.mark.parametrize("scan", sorted(SCANS))
def test_scans_reject_a_table_built_for_other_arguments(scan):
    run_scan = SCANS[scan]
    target = classical_state("01")
    conditional = decode(encode([X(0)], 2).bits, 2, allow_callc=False)
    assert run_scan(target, 2, 10, candidate_table(2, 10)) is not None
    mismatched = (
        candidate_table(1, 10),  # another n
        candidate_table(3, 10),
        candidate_table(2, 8),  # another max_len
        candidate_table(2, 12),
        candidate_table(2, 10, conditional),  # another conditional
    )
    for table in mismatched:
        with pytest.raises(ValueError, match="candidate table"):
            run_scan(target, 2, 10, table)


def test_conditional_scan_rejects_a_table_without_it():
    target = classical_state("11")
    conditional = decode(encode([X(0)], 2).bits, 2, allow_callc=False)
    other = decode(encode([X(1)], 2).bits, 2, allow_callc=False)
    for table in (candidate_table(2, 10), candidate_table(2, 10, other)):
        with pytest.raises(ValueError, match="candidate table"):
            exact_estimate(target, 2, 10, conditional=conditional, outputs=table)
    table = candidate_table(2, 10, conditional)
    assert exact_estimate(target, 2, 10, conditional=conditional, outputs=table).best
