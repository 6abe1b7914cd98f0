import math
from fractions import Fraction
from random import Random

import pytest

from qkclab import (
    CALLC,
    PHASE,
    ROT,
    X,
    Program,
    SamplingPlan,
    StateVector,
    apply_gate,
    bernoulli,
    cached_outputs,
    candidate_table,
    classical_state,
    decode,
    encode,
    directly_computable,
    exact_estimate,
    fidelity,
    gr,
    ideal_value,
    k_from_bound,
    projection_oracle,
    random_state,
    rotated_basis,
    run,
    run_trials,
    sampled_estimate,
    shortest_exact_program,
    tensor,
    upper_bound_witness,
    zero_state,
)
import qkclab.estimator as estimator
import qkclab.statevec as statevec
from qkclab.estimator import trial_rng

from oracles import Counted, brute_force_best, random_gate_list, reference_fidelity

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
        est = exact_estimate(classical_state("00"), 2, 8)
        assert est.best.total == 1
        assert est.best.program.bits == "1"
        assert est.best.penalty == 0

    def test_rotated_target_beats_its_own_generator(self):
        # the exact one-gate program costs 7 bits, but the empty program plus
        # a 2-bit penalty costs 3: the minimum is 3
        target = apply_gate(zero_state(1), ROT(0))
        oracle = brute_force_best(target, 1, 8)
        assert oracle == (3, "1")
        est = exact_estimate(target, 1, 8)
        assert est.best.total == 3
        assert est.best.penalty == 2

    def test_matches_brute_force_on_random_targets(self):
        rng = Random(31)
        for _ in range(12):
            n = rng.randrange(1, 3)
            target = random_state(n, rng)
            est = exact_estimate(target, n, 9)
            oracle = brute_force_best(target, n, 9)
            if oracle is None:
                assert est.best is None
            else:
                assert (est.best.total, est.best.program.bits) == oracle

    def test_no_finite_estimate(self):
        est = exact_estimate(classical_state("1"), 1, 1)
        assert est.best is None
        assert est.trace == []

    def test_tie_break_prefers_smaller_program(self):
        est = exact_estimate(classical_state("11"), 2, 11)
        assert est.best.total == 11
        assert est.best.program == encode([X(0), X(1)], 2)

    def test_trace_is_strictly_decreasing_then_constant_minimum(self):
        rng = Random(32)
        for _ in range(10):
            target = random_state(2, rng)
            est = exact_estimate(target, 2, 12)
            totals = [t for _, t in est.trace]
            assert all(a > b for a, b in zip(totals, totals[1:]))
            if est.best is not None:
                assert totals[-1] == est.best.total

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exact_estimate(zero_state(1), 2, 8)

    def test_cache_gives_identical_results(self, tmp_path):
        outputs = cached_outputs(2, 10, tmp_path)
        rng = Random(33)
        for _ in range(5):
            target = random_state(2, rng)
            with_cache = exact_estimate(target, 2, 10, outputs=outputs)
            without = exact_estimate(target, 2, 10)
            assert (with_cache.best, with_cache.trace) == (without.best, without.trace)

    def test_directly_computable_detection(self, tmp_path):
        outputs = cached_outputs(1, 10, tmp_path)
        rng = Random(38)
        targets = [random_state(1, rng) for _ in range(4)]
        targets += [run(encode(random_gate_list(rng, 1, 2), 1), 1) for _ in range(6)]
        targets += [classical_state("0"), classical_state("1")]
        for target in targets:
            flag = directly_computable(target, 1, 10, outputs=outputs)
            oracle = any(fidelity(target, out) == 1 for _i, _p, out in outputs.rows)
            assert flag == oracle
            est = exact_estimate(target, 1, 10, outputs=outputs)
            if est.best is not None and est.best.penalty == 0:
                # a penalty-free winner is itself a fidelity-1 description
                assert est.best.fidelity == 1
                assert flag

    def test_direct_computability_does_not_force_a_penalty_free_winner(self):
        # ROT|0> has an exact 7-bit program, yet the minimizer prefers the
        # empty program plus 2 penalty bits (total 3), so the winner's
        # penalty says nothing about reachability
        target = apply_gate(zero_state(1), ROT(0))
        assert directly_computable(target, 1, 8)
        est = exact_estimate(target, 1, 8)
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
            cond = decode(generator.bits, 1, allow_callc=False)
            target = run(generator, 1)
            seen_lengths.add(generator.length)
            with_cond = exact_estimate(target, 1, 12, conditional=cond)
            without = exact_estimate(target, 1, 12)
            # CALLC candidates cost at least callc_len, and [CALLC] alone
            # reproduces the target exactly, so the minimum is capped there
            assert with_cond.best.total == min(without.best.total, callc_len)
            assert with_cond.best.total <= callc_len
        assert len(seen_lengths) > 2  # the cap does not depend on l(p)

    def test_exact_equality_when_no_cheap_description_exists(self):
        target = classical_state("1")
        cond = decode(encode([X(0)], 1).bits, 1, allow_callc=False)
        assert exact_estimate(target, 1, 12).best.total == 7
        with_cond = exact_estimate(target, 1, 12, conditional=cond)
        assert with_cond.best.total == 6
        assert with_cond.best.program == encode([CALLC()], 1)


class TestUpperBoundWitness:
    def test_classical_target(self):
        prog, record = upper_bound_witness(classical_state("11"), 2)
        assert prog == encode([X(0), X(1)], 2)
        assert record.penalty == 0

    def test_rot_tensor_target(self):
        target = tensor(apply_gate(zero_state(1), ROT(0)), zero_state(1))
        prog, record = upper_bound_witness(target, 2)
        assert record.fidelity == F(16, 25)  # |10> wins over |00>
        assert prog == encode([X(0)], 2)
        assert record.penalty == 1

    def test_equal_fidelity_target_hits_penalty_n(self):
        uniform = StateVector(2, (gr(F(1, 2)),) * 4)
        prog, record = upper_bound_witness(uniform, 2)
        assert record.penalty == 2
        assert prog.bits == "1"  # ties resolve to index 0: the empty program

    def test_bound_holds_on_random_targets(self):
        rng = Random(35)
        for _ in range(50):
            n = rng.randrange(1, 4)
            target = random_state(n, rng)
            prog, record = upper_bound_witness(target, n)
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
        table = candidate_table(2, 12)
        targets = [classical_state(bits) for bits in ("00", "01", "10", "11")]
        targets += rotated_basis(2).vectors
        targets.append(apply_gate(zero_state(2), ROT(1)))
        targets += [random_state(2, Random(s)) for s in (1, 2, 3)]
        for target in targets:
            measure = projection_oracle(target)
            for idx, prog, out in table.rows:
                q = reference_fidelity(target, out)
                for seed in (7, 2024):
                    rng, ref = trial_rng(seed, idx), trial_rng(seed, idx)
                    drawn = [measure(prog, out, rng) for _ in range(k)]
                    num, den = q.numerator, q.denominator
                    assert drawn == [bernoulli(num, den, ref) for _ in range(k)]
                    assert rng.getstate() == ref.getstate()

    def test_no_trial_builds_a_fraction(self, monkeypatch):
        # each trial draws on fidelity_pair's ints: cold sampled estimates
        # at the sampled command's default plan run every trial without one
        # Fraction construction in statevec or estimator
        plan = SamplingPlan.for_dimension(2, 0.05, 0.25)
        targets = [classical_state(bits) for bits in ("00", "01", "10", "11")]
        targets += rotated_basis(2).vectors
        built = Counted(Fraction)
        monkeypatch.setattr(statevec, "Fraction", built)
        monkeypatch.setattr(estimator, "Fraction", built)
        trials = Counted(projection_oracle(targets[0]))
        sampled_estimate(trials, 2, plan, 12, seed=0)
        for target in targets[1:]:
            sampled_estimate(projection_oracle(target), 2, plan, 12, seed=0)
        assert trials.calls >= plan.k and built.calls == 0
        fidelity(targets[0], targets[-1])  # the count does see a construction
        assert built.calls == 1


class TestRunTrials:
    def test_degenerate_fidelity_one(self):
        prog = Program("1")
        out = zero_state(2)
        measure = projection_oracle(zero_state(2))
        best, trace = run_trials([(0, prog, out)], measure, k=200, epsilon=0.25, seed=5)
        assert best.m == 200
        assert best.estimate == pytest.approx(1 + math.log2(1.25), abs=1e-12)
        assert trace == [(0, best.estimate)]

    def test_law_of_large_numbers_at_half(self):
        # two candidates, both with success probability 1/2: the estimate
        # converges to length + 1 and the shorter program wins
        measure = lambda prog, out, rng: bernoulli(1, 2, rng)
        pa, pb = Program("1"), Program("010100")
        best, _ = run_trials(
            [(0, pa, None), (1, pb, None)], measure, k=10**5, epsilon=0.001, seed=9
        )
        assert best.program == pa
        assert abs(best.estimate - (pa.length + 1)) < 0.1

    def test_skips_all_failures(self):
        measure = lambda prog, out, rng: False
        best, trace = run_trials([(0, Program("1"), None)], measure, k=50, epsilon=0.25, seed=1)
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
        best_after, _ = run_trials(
            [(0, pa, None), (1, pb, None)], measure_into(after), k=500, epsilon=0.25, seed=11
        )
        best_alone, _ = run_trials([(1, pb, None)], measure_into(alone), k=500, epsilon=0.25, seed=11)
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
        calls = []
        measure = lambda prog, out, rng: calls.append(prog) or True
        with pytest.raises(ValueError, match="order"):
            run_trials(
                [(i, Program(b), None) for i, b in cands], measure, k=10, epsilon=0.25, seed=0
            )
        assert calls == []


class TestSampledEstimate:
    def test_plan_must_cover_n(self):
        plan = SamplingPlan(alpha=0.05, epsilon=0.25, k=10)
        with pytest.raises(ValueError):
            sampled_estimate(projection_oracle(zero_state(2)), 2, plan, 8, seed=0)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(alpha=1.5, epsilon=0.25, k=100)
        with pytest.raises(ValueError):
            SamplingPlan(alpha=0.05, epsilon=0.6, k=100)
        plan = SamplingPlan.for_dimension(2, 0.05, 0.25)
        assert plan.covers(2)

    def test_deterministic_given_seed(self):
        plan = SamplingPlan.for_dimension(1, 0.05, 0.25)
        target = apply_gate(zero_state(1), ROT(0))
        a = sampled_estimate(projection_oracle(target), 1, plan, 8, seed=42)
        b = sampled_estimate(projection_oracle(target), 1, plan, 8, seed=42)
        assert a.best == b.best and a.trace == b.trace

    def test_trace_is_nonincreasing(self):
        plan = SamplingPlan.for_dimension(1, 0.05, 0.25)
        target = apply_gate(zero_state(1), ROT(0))
        result = sampled_estimate(projection_oracle(target), 1, plan, 10, seed=3)
        ests = [e for _, e in result.trace]
        assert all(a > b for a, b in zip(ests, ests[1:]))

    def test_within_one_bit_of_ideal_for_zero_target(self):
        plan = SamplingPlan.for_dimension(2, 0.05, 0.25)
        target = classical_state("00")
        ideal = ideal_value(target, 2, 10)
        assert ideal == pytest.approx(1.0)
        for seed in range(5):
            result = sampled_estimate(projection_oracle(target), 2, plan, 10, seed=seed)
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
        assert ideal_value(target, 1, 8) == pytest.approx(expected)

    def test_none_when_nothing_overlaps(self):
        assert ideal_value(classical_state("1"), 1, 1) is None


class TestShortestExactProgram:
    def test_finds_the_generator(self):
        target = classical_state("11")
        prog = shortest_exact_program(target, 2, 12)
        assert prog == encode([X(0), X(1)], 2)

    def test_exact_means_amplitudes_not_phase(self):
        # PHASE^2 |1> = -|1>: fidelity 1 with |1> but amplitudes differ
        generator = encode([X(0), PHASE(0), PHASE(0)], 1)
        minus_one = run(generator, 1)
        assert shortest_exact_program(minus_one, 1, generator.length) == generator
        # the phase-equivalent state |1> has a 7-bit program instead
        assert shortest_exact_program(classical_state("1"), 1, 17) == encode([X(0)], 1)

    def test_none_if_out_of_reach(self):
        assert shortest_exact_program(classical_state("1"), 1, 5) is None
