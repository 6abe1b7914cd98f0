import math
from fractions import Fraction
from random import Random

import pytest

import qkclab.estimator as estimator
import qkclab.statevec as statevec
from qkclab import (
    CALLC,
    INFINITE,
    ROT,
    X,
    Program,
    consistency_sweep,
    encode,
    enumerate_programs,
    fidelity,
    incompressibility_census,
    joint_bound_from,
    penalty_bits,
    product_witness,
    rotated_basis,
    rotation_circuit,
    run,
    standard_basis,
    subadditivity_report,
    superposed_bit_example,
    uniform_sweep,
)
from qkclab.proglang import decode

from oracles import Counted, CountedKernel

F = Fraction


class TestCountingBound:
    def test_per_program_penalty_histogram(self):
        # the combinatorial engine: an orthonormal basis splits any unit output
        # into fidelities summing to 1, so at most 2^d vectors have penalty <= d
        basis = standard_basis(2)
        for prog in enumerate_programs(10, 2):
            output = run(prog, 2)
            if output is None:
                continue
            penalties = [penalty_bits(fidelity(e, output)) for e in basis.vectors]
            for d in range(4):
                assert sum(1 for p in penalties if p <= d) <= 1 << d

    def test_standard_census_verdicts(self):
        for n in (1, 2, 3):
            for c in range(1, n + 1):
                report = incompressibility_census(n, c, 10)
                assert report.bound == 1 << (n - c)
                assert report.count_below < report.bound
                assert report.verdict

    def test_degenerate_c_equal_n(self):
        # threshold 0: no candidate has total < 0, vacuously true
        report = incompressibility_census(3, 3, 10)
        assert report.count_below == 0
        assert report.verdict

    @pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
    def test_cold_census_builds_one_fraction_per_score(self, rotated, monkeypatch):
        # the states, steps and overlaps run on the integer form: the only
        # Fractions are each positive score's fidelity and each record's
        # penalty, and each basis vector binds the kernel once and scores
        # one positive row: the stop rule reads no row past the winner
        basis = rotated_basis(3) if rotated else None
        built = Counted(Fraction)
        monkeypatch.setattr(statevec, "Fraction", built)
        monkeypatch.setattr(estimator, "Fraction", built)
        kernel = CountedKernel(statevec.fidelity_to)
        penalties = Counted(statevec.penalty_bits)
        monkeypatch.setattr(estimator, "fidelity_to", kernel)
        monkeypatch.setattr(estimator, "penalty_bits", penalties)
        incompressibility_census(3, 1, 20, basis=basis)
        assert kernel.binds == 8 and kernel.positive == penalties.calls == 8
        assert built.calls == kernel.positive + penalties.calls

    def test_census_with_cache_matches(self, tmp_path):
        plain = incompressibility_census(2, 1, 10)
        cached = incompressibility_census(2, 1, 10, cache_dir=tmp_path)
        assert plain.count_below == cached.count_below
        assert [e.best for e in plain.estimates] == [e.best for e in cached.estimates]

    def test_rotated_basis_is_orthonormal_and_passes(self):
        for n in (1, 2):
            basis = rotated_basis(n)
            report = incompressibility_census(n, 1, 10, basis=basis, label="rotated")
            assert report.verdict

    def test_rotation_circuit_shape(self):
        assert rotation_circuit(1) == [ROT(0)]
        assert len(rotation_circuit(3)) == 5

    def test_report_serialization(self):
        report = incompressibility_census(2, 1, 8)
        obj = report.to_json_obj()
        assert obj["verdict"] is True
        assert len(obj["vectors"]) == 4
        rows = report.csv_rows()
        assert len(rows) == 4
        assert report.csv_header()[0] == "index"


class TestUniformSweep:
    def test_fraction_is_one_at_small_thresholds(self):
        result = uniform_sweep(2, 1, 10, samples=20, seed=4)
        assert result["fraction_incompressible"] == 1.0

    def test_reproducible(self):
        a = uniform_sweep(2, 2, 10, samples=10, seed=5)
        b = uniform_sweep(2, 2, 10, samples=10, seed=5)
        assert a == b

    @pytest.mark.parametrize("samples", [0, -3])
    def test_rejects_fewer_than_one_sample(self, samples):
        with pytest.raises(ValueError, match="samples"):
            uniform_sweep(2, 1, 10, samples=samples, seed=4)

    def test_rejects_negative_c(self):
        with pytest.raises(ValueError, match="c must be nonnegative"):
            uniform_sweep(2, -1, 10, samples=1, seed=4)


class TestConsistency:
    def test_all_zeros(self):
        record = consistency_sweep(2, 12).records[0]
        assert record.bits == "00"
        assert record.estimate.best.total == 1
        assert record.exact_program == Program("1")
        assert record.gap == 0

    def test_all_ones(self):
        record = consistency_sweep(2, 12).records[3]
        assert record.bits == "11"
        assert record.exact_program == encode([X(0), X(1)], 2)
        assert record.exact_program.length == 11
        assert record.estimate.best.total == 11
        assert record.gap == 0

    def test_gap_is_never_negative(self):
        for n in (1, 2):
            sweep = consistency_sweep(n, 12)
            for record in sweep.records:
                assert record.gap is not None
                assert record.gap >= 0

    def test_measured_constant_at_n2(self):
        # frozen from the exhaustive run: every 2-qubit classical string's
        # cheapest description is already penalty-free under this encoding
        sweep = consistency_sweep(2, 12)
        assert sweep.max_gap == 0

    def test_csv_shape(self):
        sweep = consistency_sweep(2, 12)
        assert len(sweep.csv_rows()) == 4


class TestSubadditivity:
    def test_empty_pair(self):
        empty = Program("1")
        report = subadditivity_report(empty, empty, 16)
        assert report.conclusive
        assert report.joint.best.total == 1
        assert report.conditional.best.total == 1
        assert report.unconditional_y.best.total == 1
        assert report.slack == 1

    def test_x_gate_with_empty(self):
        report = subadditivity_report(encode([X(0)], 1), Program("1"), 16)
        # joint target is |10>: x supplies the high-order qubit
        assert report.joint.best.program == encode([X(0)], 2)
        assert report.conclusive
        assert report.slack is not None and report.slack >= 0

    def test_random_pairs_conclusive_slack_nonnegative(self):
        rng = Random(41)
        single = [Program("1"), encode([X(0)], 1), encode([ROT(0)], 1), encode([ROT(0), ROT(0)], 1)]
        for _ in range(15):
            p_x, p_y = rng.choice(single), rng.choice(single)
            report = subadditivity_report(p_x, p_y, 16)
            if report.conclusive:
                assert report.slack >= 0

    def test_inconclusive_when_witness_does_not_fit(self):
        three = encode([ROT(0), ROT(0), ROT(0)], 1)
        report = subadditivity_report(three, Program("1"), 16)
        assert product_witness(
            decode(three.bits, 1), decode(Program("1").bits, 1)
        ).length == 17
        assert not report.conclusive
        assert "witness" in report.reason

    def test_callc_generators_rejected(self):
        with pytest.raises(ValueError):
            subadditivity_report(encode([CALLC()], 1), Program("1"), 16)

    def test_unequal_widths_rejected(self):
        with pytest.raises(ValueError, match="n_x and n_y must be equal"):
            subadditivity_report(Program("1"), Program("1"), 12, n_x=2, n_y=1)

    def test_witness_program_prepares_the_joint_state(self):
        p_x, p_y = encode([ROT(0)], 1), encode([X(0)], 1)
        witness = product_witness(decode(p_x.bits, 1), decode(p_y.bits, 1))
        joint = run(witness, 2)
        from qkclab import tensor

        x = run(p_x, 1)
        y = run(p_y, 1)
        assert joint == tensor(x, y)


class TestJointBound:
    def test_identical_zero_states(self):
        report = joint_bound_from(subadditivity_report(Program("1"), Program("1"), 12))
        assert report.applicable
        assert report.fidelity_xy == 1
        assert report.lhs_total == 1
        assert report.rhs == pytest.approx(1.0)
        assert report.slack == pytest.approx(0.0)

    def test_rot_against_zero(self):
        report = joint_bound_from(subadditivity_report(encode([ROT(0)], 1), Program("1"), 12))
        assert report.fidelity_xy == F(9, 25)
        assert report.rhs == pytest.approx(1 + math.log2(25 / 9))
        assert report.lhs_total == 3
        # the additive logarithmic slack can be negative; it is only reported
        assert report.slack == pytest.approx(1 + math.log2(25 / 9) - 3)

    def test_orthogonal_pair_is_inapplicable(self):
        report = joint_bound_from(subadditivity_report(encode([X(0)], 1), Program("1"), 12))
        assert not report.applicable
        assert report.rhs is None and report.slack is None


class TestSuperposedBit:
    def test_structure_at_n2(self):
        report = superposed_bit_example(2, 12)
        assert report.bits == "00" and report.position == 0
        # rotating qubit 0 of |00> splits the weight 9/25 vs 16/25
        assert report.basis_code_lengths == [2, INFINITE, 1, INFINITE]
        assert report.rotated.best.total == 3
        assert report.classical.best.total == 1
        assert report.constructive.length == 7
        assert report.rotated.best.total <= report.constructive.length

    def test_deterministic(self):
        a = superposed_bit_example(2, 12)
        b = superposed_bit_example(2, 12)
        assert a.rotated.best == b.rotated.best
        assert a.to_json_obj() == b.to_json_obj()

    def test_constructive_bound_on_nonzero_strings(self):
        for bits, position in (("1", 0), ("01", 1), ("110", 2)):
            report = superposed_bit_example(len(bits), 18, bits=bits, position=position)
            constructive_state = run(report.constructive, len(bits))
            target_fid = fidelity(constructive_state, constructive_state)
            assert target_fid == 1
            if report.rotated.best is not None and report.constructive.length <= 18:
                assert report.rotated.best.total <= report.constructive.length
