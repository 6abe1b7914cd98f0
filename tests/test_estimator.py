import dataclasses
import math
from fractions import Fraction
from random import Random

import pytest

from qkclab import (
    CALLC,
    PHASE,
    ROT,
    X,
    CandidateTable,
    Program,
    StateVector,
    TrialResult,
    apply_gate,
    bernoulli,
    cached_outputs,
    candidate_rows,
    candidate_table,
    classical_state,
    decode,
    encode,
    exact_estimate,
    fidelity,
    ideal_value,
    k_from_bound,
    projection_oracle,
    random_state,
    rotated_basis,
    run,
    sampled_estimate,
    shortest_exact_program,
    standard_basis,
    tensor,
    upper_bound_witness,
    zero_state,
)
import qkclab.estimator as estimator
import qkclab.statevec as statevec
from qkclab.estimator import _run_trials, trial_rng
from qkclab.statevec import operands

from oracles import (
    Counted,
    CountedKernel,
    brute_force_best,
    check_estimates,
    check_monotone_in_the_bound,
    check_prefix_property,
    gr,
    random_gate_list,
    reference_fidelity,
    reference_run_trials,
)

F = Fraction


class TestKFromBound:
    def test_frozen_values(self):
        assert k_from_bound(4, 0.01, 0.25) == 975
        assert k_from_bound(1, 0.5, 0.25) == 200

    def test_matches_integer_search(self):
        # independent oracle: smallest k whose guaranteed error bound
        # 2n - eps^2 k log2(e) / 6 has dropped to log2(alpha)
        for n, alpha, eps in ((1, 0.5, 0.25), (2, 0.05, 0.25), (4, 0.01, 0.25), (3, 0.1, 0.4)):
            k = 1
            while 2 * n - (eps**2 * k * math.log2(math.e)) / 6 > math.log2(alpha):
                k += 1
            assert k_from_bound(n, alpha, eps) == k

    def test_monotone_in_n(self):
        assert k_from_bound(4, 0.05, 0.25) > k_from_bound(1, 0.05, 0.25)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            k_from_bound(2, 1.0, 0.25)
        with pytest.raises(ValueError):
            k_from_bound(2, 0.0, 0.25)
        with pytest.raises(ValueError):
            k_from_bound(2, 0.05, 0.6)
        with pytest.raises(ValueError):
            k_from_bound(0, 0.05, 0.25)

    def test_slack_only_increases_k(self):
        assert k_from_bound(2, 0.05, 0.25, slack=3.0) >= k_from_bound(2, 0.05, 0.25)


class TestExactEstimate:
    def test_all_zeros_target(self):
        oracle = brute_force_best(classical_state("00"), 2, 8)
        assert oracle == (1, "1")
        est = exact_estimate(classical_state("00"), candidate_table(2, 8))
        assert est.best.total == 1
        assert est.best.program.bits == "1"
        assert est.best.penalty == 0

    def test_rotated_target_beats_its_own_generator(self):
        # the exact one-gate program costs 7 bits, but the empty program plus
        # a 2-bit penalty costs 3: the minimum is 3
        target = apply_gate(zero_state(1), ROT(0))
        oracle = brute_force_best(target, 1, 8)
        assert oracle == (3, "1")
        est = exact_estimate(target, candidate_table(1, 8))
        assert est.best.total == 3
        assert est.best.penalty == 2

    def test_matches_brute_force_on_random_targets(self):
        rng = Random(31)
        for _ in range(12):
            n = rng.randrange(1, 3)
            target = random_state(n, rng)
            est = exact_estimate(target, candidate_table(n, 9))
            oracle = brute_force_best(target, n, 9)
            if oracle is None:
                assert est.best is None
            else:
                assert (est.best.total, est.best.program.bits) == oracle

    def test_no_finite_estimate(self):
        est = exact_estimate(classical_state("1"), candidate_table(1, 1))
        assert est.best is None
        assert est.trace == []

    def test_tie_break_prefers_smaller_program(self):
        est = exact_estimate(classical_state("11"), candidate_table(2, 11))
        assert est.best.total == 11
        assert est.best.program == encode([X(0), X(1)], 2)

    def test_trace_is_strictly_decreasing_then_constant_minimum(self):
        rng = Random(32)
        for _ in range(10):
            target = random_state(2, rng)
            est = exact_estimate(target, candidate_table(2, 12))
            totals = [t for _, t in est.trace]
            assert all(a > b for a, b in zip(totals, totals[1:]))
            if est.best is not None:
                assert totals[-1] == est.best.total

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exact_estimate(zero_state(1), candidate_table(2, 8))

    def test_cache_gives_identical_results(self, tmp_path):
        outputs = cached_outputs(2, 10, tmp_path)
        rng = Random(33)
        for _ in range(5):
            target = random_state(2, rng)
            with_cache = exact_estimate(target, outputs)
            without = exact_estimate(target, candidate_table(2, 10))
            assert (with_cache.best, with_cache.trace) == (without.best, without.trace)

    def test_direct_computability_does_not_force_a_penalty_free_winner(self):
        # ROT|0> has an exact 7-bit program, yet the minimizer prefers the
        # empty program plus 2 penalty bits (total 3), so the winner's
        # penalty says nothing about reachability
        target = apply_gate(zero_state(1), ROT(0))
        assert shortest_exact_program(target, candidate_table(1, 8)) == encode([ROT(0)], 1)
        est = exact_estimate(target, candidate_table(1, 8))
        assert est.best.penalty == 2


class TestConditionalReuse:
    def test_callc_gives_constant_cost_descriptions(self):
        rng = Random(34)
        callc_len = encode([CALLC()], 1).length
        assert callc_len == 6
        seen_lengths = set()
        for _ in range(10):
            gates = random_gate_list(rng, 1, 6)
            generator = encode(gates, 1)
            target = run(generator, 1)
            seen_lengths.add(generator.length)
            with_cond = exact_estimate(target, candidate_table(1, 12, generator))
            without = exact_estimate(target, candidate_table(1, 12))
            # CALLC candidates cost at least callc_len, and [CALLC] alone
            # reproduces the target exactly, so the minimum is capped there
            assert with_cond.best.total == min(without.best.total, callc_len)
            assert with_cond.best.total <= callc_len
        assert len(seen_lengths) > 2  # the cap does not depend on l(p)

    def test_exact_equality_when_no_cheap_description_exists(self):
        target = classical_state("1")
        cond = encode([X(0)], 1)
        assert exact_estimate(target, candidate_table(1, 12)).best.total == 7
        with_cond = exact_estimate(target, candidate_table(1, 12, cond))
        assert with_cond.best.total == 6
        assert with_cond.best.program == encode([CALLC()], 1)


class TestUpperBoundWitness:
    def test_classical_target(self):
        prog, record = upper_bound_witness(classical_state("11"))
        assert prog == encode([X(0), X(1)], 2)
        assert record.penalty == 0

    def test_rot_tensor_target(self):
        target = tensor(apply_gate(zero_state(1), ROT(0)), zero_state(1))
        prog, record = upper_bound_witness(target)
        assert record.fidelity == F(16, 25)  # |10> wins over |00>
        assert prog == encode([X(0)], 2)
        assert record.penalty == 1

    def test_equal_fidelity_target_hits_penalty_n(self):
        uniform = StateVector(2, (gr(F(1, 2)),) * 4)
        prog, record = upper_bound_witness(uniform)
        assert record.penalty == 2
        assert prog.bits == "1"  # ties resolve to index 0: the empty program

    def test_bound_holds_on_random_targets(self):
        rng = Random(35)
        for _ in range(50):
            n = rng.randrange(1, 4)
            target = random_state(n, rng)
            prog, record = upper_bound_witness(target)
            assert record.fidelity >= F(1, 1 << n)
            assert record.penalty <= n
            assert record.total <= prog.length + n


class TestBernoulli:
    def test_degenerate_probabilities(self):
        rng = Random(36)
        assert all(bernoulli(1, 1, rng) for _ in range(50))
        assert not any(bernoulli(0, 1, rng) for _ in range(50))

    def test_frequency_tracks_probability(self):
        rng = Random(37)
        hits = sum(bernoulli(9, 25, rng) for _ in range(20000))
        assert abs(hits / 20000 - 9 / 25) < 0.01

    @pytest.mark.parametrize("num, den", [(3, 2), (-1, 4), (1, 0), (0, 0), (0, -1), (-2, -1)])
    def test_rejects_a_pair_that_is_no_probability(self, num, den):
        # 3/2 would succeed and -1/4 fail on every draw; a zero or negative
        # denominator has no draw at all.  Nothing is drawn before the check.
        rng = Random(38)
        state = rng.getstate()
        with pytest.raises(ValueError, match="not a probability"):
            bernoulli(num, den, rng)
        assert rng.getstate() == state


class TestProjectionOracle:
    def test_draw_stream_matches_the_fraction_fidelity(self):
        # each row's trial stream gives the same outcomes as Bernoulli draws
        # on the Fraction-path fidelity, so sampled records do not depend on
        # how the oracle computes the overlap.  The classical targets have
        # D = 1, and no row's fidelity on them reduces; on the rotated and
        # random targets, 7 to 69 of the 69 rows' fidelities reduce, so the
        # reduced denominator that bounds each randrange is checked too.
        k = k_from_bound(2, 0.05, 0.25)  # 554: the sampled command's default plan
        rows = candidate_rows(2, 12)
        targets = [classical_state(bits) for bits in ("00", "01", "10", "11")]
        targets += rotated_basis(2).vectors
        targets.append(apply_gate(zero_state(2), ROT(1)))
        targets += [random_state(2, Random(s)) for s in (1, 2, 3)]
        for target in targets:
            measure = projection_oracle(target)
            for idx, prog, out in rows:
                q = reference_fidelity(target, out)
                for seed in (7, 2024):
                    rng, ref = trial_rng(seed, idx), trial_rng(seed, idx)
                    drawn = [measure(prog, out, rng) for _ in range(k)]
                    num, den = q.numerator, q.denominator
                    assert drawn == [bernoulli(num, den, ref) for _ in range(k)]
                    assert rng.getstate() == ref.getstate()

    def test_no_trial_builds_a_fraction(self, monkeypatch):
        # each trial draws on the bound kernel's ints: cold sampled estimates
        # at the sampled command's default plan run every trial without one
        # Fraction construction in statevec or estimator
        targets = [classical_state(bits) for bits in ("00", "01", "10", "11")]
        targets += rotated_basis(2).vectors
        built = Counted(Fraction)
        monkeypatch.setattr(statevec, "Fraction", built)
        monkeypatch.setattr(estimator, "Fraction", built)
        trials = Counted(projection_oracle(targets[0]))
        sampled_estimate(trials, 2, 12, 0.05, 0.25, seed=0)
        for target in targets[1:]:
            sampled_estimate(projection_oracle(target), 2, 12, 0.05, 0.25, seed=0)
        assert trials.calls >= k_from_bound(2, 0.05, 0.25) and built.calls == 0
        fidelity(targets[0], targets[-1])  # the count does see a construction
        assert built.calls == 1


class TestRunTrials:
    def test_degenerate_fidelity_one(self):
        prog = Program("1")
        out = zero_state(2)
        measure = projection_oracle(zero_state(2))
        best, trace = _run_trials([(0, prog, out)], measure, k=200, epsilon=0.25, seed=5)
        assert best.m == 200
        assert best.estimate == pytest.approx(1 + math.log2(1.25), abs=1e-12)
        assert trace == [(0, best.estimate)]

    def test_law_of_large_numbers_at_half(self):
        # two candidates, both with success probability 1/2: the estimate
        # converges to length + 1 and the shorter program wins
        measure = lambda prog, out, rng: bernoulli(1, 2, rng)
        pa, pb = Program("1"), Program("010100")
        best, _ = _run_trials(
            [(0, pa, None), (1, pb, None)], measure, k=10**5, epsilon=0.001, seed=9
        )
        assert best.program == pa
        assert abs(best.estimate - (pa.length + 1)) < 0.1

    def test_skips_all_failures(self):
        measure = lambda prog, out, rng: False
        best, trace = _run_trials([(0, Program("1"), None)], measure, k=50, epsilon=0.25, seed=1)
        assert best is None and trace == []

    def test_seeding_is_per_candidate_position(self):
        # candidate 1 draws the same trials whether or not candidate 0 runs
        # before it; candidate 0 always fails, so the scan reaches candidate 1
        pa, pb = Program("1"), Program("010100")

        def measure_into(outcomes):
            def measure(prog, out, rng):
                if prog == pa:
                    return False
                outcomes.append(bernoulli(1, 2, rng))
                return outcomes[-1]

            return measure

        after, alone = [], []
        best_after, _ = _run_trials(
            [(0, pa, None), (1, pb, None)], measure_into(after), k=500, epsilon=0.25, seed=11
        )
        best_alone, _ = _run_trials([(1, pb, None)], measure_into(alone), k=500, epsilon=0.25, seed=11)
        assert best_after == best_alone and best_after.program == pb
        assert after == alone and len(alone) == 500

    @pytest.mark.parametrize(
        "cands",
        [
            [(1, "010100"), (0, "1")],
            [(1, "0101001"), (2, "01010011"), (0, "1")],
            [(1, "011"), (0, "010")],
        ],
        ids=["reversed", "shorter-last", "same-length-descending"],
    )
    def test_candidates_out_of_order_are_rejected_before_any_trial(self, cands):
        # the rows are checked as the scan reads them: the rows before the
        # one that breaks the order run their trials, and that row runs none.
        # Every trial fails, so the scan reads every row
        calls = []
        measure = lambda prog, out, rng: calls.append(prog) and False
        with pytest.raises(ValueError, match="order"):
            _run_trials(
                [(i, Program(b), None) for i, b in cands], measure, k=10, epsilon=0.25, seed=0
            )
        assert calls == [Program(b) for _i, b in cands[:-1] for _ in range(10)]

    def test_an_exact_tie_keeps_the_earlier_row(self):
        # at the sampled command's default plan, m = 13 at length 5 and
        # m = 52 at length 7 give one estimate exactly, 5 - log2(13 / 692.5),
        # but in floats the later row reads lower
        k, epsilon = 554, 0.25
        hits = {5: 13, 7: 52}
        rows = [(0, Program("0" * 5), None), (1, Program("0" * 7), None)]
        est = {n: n - math.log2(m / ((1.0 + epsilon) * k)) for n, m in hits.items()}
        assert est[7] < est[5]

        def first_hits():
            seen = []  # each row's first hits[length] trials succeed

            def measure(prog, out, rng):
                seen.append(prog)
                return seen.count(prog) <= hits[prog.length]

            return measure

        expected = (TrialResult(rows[0][1], 13, k, est[5]), [(0, est[5])])
        assert _run_trials(rows, first_hits(), k, epsilon, seed=0) == expected
        assert reference_run_trials(rows, first_hits(), k, epsilon, 0) == expected


class TestSampledEstimate:
    def test_plan_validation(self):
        measure = projection_oracle(zero_state(2))
        with pytest.raises(ValueError):
            sampled_estimate(measure, 2, 8, 1.5, 0.25, seed=0)
        with pytest.raises(ValueError):
            sampled_estimate(measure, 2, 8, 0.05, 0.6, seed=0)
        result = sampled_estimate(measure, 2, 8, 0.05, 0.25, seed=0)
        assert result.k == k_from_bound(2, 0.05, 0.25)

    def test_deterministic_given_seed(self):
        target = apply_gate(zero_state(1), ROT(0))
        a = sampled_estimate(projection_oracle(target), 1, 8, 0.05, 0.25, seed=42)
        b = sampled_estimate(projection_oracle(target), 1, 8, 0.05, 0.25, seed=42)
        assert a.best == b.best and a.trace == b.trace

    def test_trace_is_nonincreasing(self):
        target = apply_gate(zero_state(1), ROT(0))
        result = sampled_estimate(projection_oracle(target), 1, 10, 0.05, 0.25, seed=3)
        ests = [e for _, e in result.trace]
        assert all(a > b for a, b in zip(ests, ests[1:]))

    def test_within_one_bit_of_ideal_for_zero_target(self):
        target = classical_state("00")
        ideal = ideal_value(target, 2, 10, candidate_table(2, 10))
        assert ideal == pytest.approx(1.0)
        for seed in range(5):
            result = sampled_estimate(projection_oracle(target), 2, 10, 0.05, 0.25, seed=seed)
            assert result.best is not None
            assert ideal <= result.best.estimate <= ideal + 1.0


class TestIdealValue:
    def test_matches_direct_minimum(self):
        target = apply_gate(zero_state(1), ROT(0))
        # candidates: empty program (1 - log2(9/25)), X (7 - log2(16/25)), exact ROT (7)
        expected = min(
            1 - math.log2(9 / 25),
            7 - math.log2(16 / 25),
            7.0,
        )
        assert ideal_value(target, 1, 8, candidate_table(1, 8)) == pytest.approx(expected)

    def test_an_exact_tie_keeps_the_earlier_row(self):
        # q = 1/400 at length 5 and q = 1/25 at length 9 give one value
        # exactly, 5 + log2(400), but in floats the later row reads lower
        target = classical_state("00")
        near = StateVector(2, (gr(F(1, 20)), gr(F(19, 20)), gr(F(6, 20), F(1, 20)), gr(F(1, 20))))
        far = StateVector(2, (gr(F(1, 5)), gr(F(4, 5)), gr(F(2, 5)), gr(F(2, 5))))
        assert (fidelity(target, near), fidelity(target, far)) == (F(1, 400), F(1, 25))
        rows = ((0, Program("0" * 5), near), (1, Program("0" * 9), far))
        table = CandidateTable(2, 9, None, rows, 2)
        values = [5 - math.log2(F(1, 400)), 9 - math.log2(F(1, 25))]
        assert values[1] < values[0]
        assert ideal_value(target, 2, 9, table) == values[0]

    def test_none_when_nothing_overlaps(self):
        assert ideal_value(classical_state("1"), 1, 1, candidate_table(1, 1)) is None


class TestShortestExactProgram:
    def test_finds_the_generator(self):
        target = classical_state("11")
        prog = shortest_exact_program(target, candidate_table(2, 12))
        assert prog == encode([X(0), X(1)], 2)

    def test_exact_means_amplitudes_not_phase(self):
        # PHASE^2 |1> = -|1>: fidelity 1 with |1> but amplitudes differ
        generator = encode([X(0), PHASE(0), PHASE(0)], 1)
        minus_one = run(generator, 1)
        table = candidate_table(1, generator.length)
        assert shortest_exact_program(minus_one, table) == generator
        # the phase-equivalent state |1> has a 7-bit program instead
        table = candidate_table(1, 17)
        assert shortest_exact_program(classical_state("1"), table) == encode([X(0)], 1)

    def test_none_if_out_of_reach(self):
        assert shortest_exact_program(classical_state("1"), candidate_table(1, 5)) is None


def test_each_scan_binds_its_target_once(monkeypatch):
    # the target's support is read once per scan, however many rows and
    # trials score against it
    n, max_len = 2, 12
    table = candidate_table(n, max_len)
    target = classical_state("11")  # orthogonal to row 0, so rows go on
    scans = {
        "exact_estimate": lambda: exact_estimate(target, table),
        "ideal_value": lambda: ideal_value(target, n, max_len, table),
        "projection_oracle": lambda: sampled_estimate(
            projection_oracle(target), n, max_len, 0.05, 0.25, seed=0
        ),
    }
    for name, scan in scans.items():
        kernel = CountedKernel(estimator.fidelity_to)
        monkeypatch.setattr(estimator, "fidelity_to", kernel)
        scan()
        monkeypatch.undo()
        assert (name, kernel.binds) == (name, 1) and kernel.calls > 1


def past_the_reference_targets(n, rng):
    targets = list(standard_basis(n).vectors) + list(rotated_basis(n).vectors)
    return targets + [random_state(n, rng) for _ in range(10)]


@pytest.mark.parametrize("n, max_len", [(3, 20), (4, 24), (5, 26)])
def test_estimates_past_the_reference_scans(n, max_len):
    # bounds where the reference scans would take too long: the checks of
    # check_estimates need none
    table = candidate_table(n, max_len)
    targets = past_the_reference_targets(n, Random(2400 + n))
    check_estimates(targets, [exact_estimate(t, table) for t in targets], table)


def tie_keeping_running_min(rows, score):
    # `_running_min` with `<=` where it has `<`: a tie replaces the best
    best = record = None
    trace = []
    for idx, prog, out in rows:
        if best is not None and best[1] << prog.length >= best[0]:
            break
        scored = score(idx, prog, out)
        if scored is not None and (best is None or scored[0][0] * best[1] <= best[0] * scored[0][1]):
            best, value, record = scored
            trace.append((idx, value))
    return record, trace


def test_check_estimates_finds_each_planted_fault(monkeypatch):
    # at (4, 24) one of the random targets has a later row that ties its best
    n, max_len = 4, 24
    table = candidate_table(n, max_len)
    targets = past_the_reference_targets(n, Random(2400 + n))

    def check(table, fault):
        estimates = [exact_estimate(t, table) for t in targets]
        with pytest.raises(AssertionError, match=f"'{fault}'"):
            check_estimates(targets, estimates, table)

    def without(drop):
        firsts = tuple(row for row in table.firsts if not drop(decode(row[1].bits, n)))
        return dataclasses.replace(table, firsts=firsts)

    with monkeypatch.context() as m:
        m.setattr(estimator, "penalty_bits", lambda q: statevec.penalty_bits(q) + 1)
        check(table, "record")
    with monkeypatch.context() as m:
        m.setattr(estimator, "_running_min", tie_keeping_running_min)
        check(table, "trace")
    check(without(lambda gates: len(gates) > 1), "witness")
    check(without(lambda gates: any(n - 1 in operands(g) for g in gates)), "permutation")


@pytest.mark.parametrize("n, max_len, longer", [(3, 16, 20), (4, 20, 24)])
def test_a_larger_bound_extends_the_smaller(n, max_len, longer):
    short, long = candidate_table(n, max_len), candidate_table(n, longer)
    check_prefix_property(short, long)
    check_monotone_in_the_bound(past_the_reference_targets(n, Random(2400 + n)), short, long)


def test_the_bound_checks_find_each_planted_fault():
    n, max_len, longer = 3, 16, 20
    short, long = candidate_table(n, max_len), candidate_table(n, longer)
    targets = past_the_reference_targets(n, Random(2400 + n))

    def without(table, drop):
        firsts = tuple(row for row in table.firsts if not drop(decode(row[1].bits, n)))
        return dataclasses.replace(table, firsts=firsts)

    # the larger bound loses the programs of more than one gate, so |011>
    # has no finite total there
    multi_gate_dropped = without(long, lambda gates: len(gates) > 1)
    with pytest.raises(AssertionError, match="'monotone'"):
        check_monotone_in_the_bound(targets, short, multi_gate_dropped)
    with pytest.raises(AssertionError, match="differ from row 7"):
        check_prefix_property(short, multi_gate_dropped)
    # the smaller bound loses the X programs: |100> settles at 9 bits on
    # ROT(0), and the larger bound's X(0) beats it
    x_dropped = without(short, lambda gates: any(isinstance(g, X) for g in gates))
    with pytest.raises(AssertionError, match="'settled'"):
        check_monotone_in_the_bound(targets, x_dropped, long)
    # indices off by one at the larger bound change no total, only traces
    shifted = tuple((idx + (idx > 0), prog, out) for idx, prog, out in long.firsts)
    shifted = dataclasses.replace(long, firsts=shifted)
    with pytest.raises(AssertionError, match=r"target: \{'settled': 1\}$"):
        check_monotone_in_the_bound(targets, short, shifted)
    with pytest.raises(AssertionError, match="differ from row 1"):
        check_prefix_property(short, shifted)
