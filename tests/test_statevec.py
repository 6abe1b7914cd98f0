import copy
import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from qkclab import (
    CNOT,
    INFINITE,
    PHASE,
    ROT,
    X,
    Basis,
    GaussianRational,
    StateVector,
    apply_circuit,
    apply_gate,
    basis_state,
    candidate_rows,
    candidate_table,
    classical_state,
    fidelity,
    fidelity_to,
    penalty_bits,
    random_state,
    rotated_basis,
    shannon_fano_code,
    shannon_fano_lengths,
    standard_basis,
    state_from_json,
    state_to_json,
    tensor,
    transformed_basis,
    zero_state,
)
from qkclab.proglang import CALLC, _op_alphabet
from qkclab import statevec
from qkclab.statevec import _lattice

from oracles import (
    CountedKernel,
    ROT_COS,
    ROT_SIN,
    c_abs2,
    c_add,
    c_conj,
    c_mul,
    c_neg,
    c_scale,
    c_sub,
    c_times_i,
    gr,
    mat2_mul,
    random_fraction,
    random_gate,
    reference_apply_gate,
    reference_fidelity,
    reference_inner_product,
    reference_norm_sq,
    reference_penalty_bits,
    reference_random_state,
    state_of_parts,
)

F = Fraction


def amps(state):
    return [(a.re, a.im) for a in state.amps]


class TestGaussianRational:
    def test_arithmetic_is_exact(self):
        # the reference paths' helpers on (re, im) pairs: GaussianRational
        # itself has no arithmetic
        a = (F(1, 3), F(1, 2))
        b = (F(2, 3), F(-1, 2))
        assert c_add(a, b) == (1, 0)
        assert c_sub(a, b) == (F(-1, 3), 1)
        assert c_mul(a, b)[0] == F(1, 3) * F(2, 3) - F(1, 2) * F(-1, 2)
        assert c_neg(a) == (F(-1, 3), F(-1, 2))
        assert c_scale(a, F(3, 2)) == (F(1, 2), F(3, 4))
        assert c_conj(a)[1] == -F(1, 2)
        assert c_times_i(a) == (F(-1, 2), F(1, 3))
        assert c_abs2(a) == F(1, 9) + F(1, 4)

    def test_canonical_form_gives_exact_equality(self):
        assert gr(F(2, 4)) == gr(F(1, 2))
        assert hash(gr(F(2, 4), F(6, 8))) == hash(gr(F(1, 2), F(3, 4)))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            gr(0.5)

    def test_float_parts_in_a_state_rejected(self):
        # GaussianRational itself checks nothing; the state's norm check
        # names the value instead of failing on a missing attribute
        amps = (GaussianRational(0.6, 0), GaussianRational(0.8, 0))
        with pytest.raises(TypeError, match="0.6"):
            StateVector(1, amps)


class TestStates:
    def test_zero_state(self):
        s = zero_state(2)
        assert amps(s) == [(1, 0), (0, 0), (0, 0), (0, 0)]

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            StateVector(1, (gr(1), gr(1)))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            StateVector(2, (gr(1), gr(0)))
        # an n from a file: 10**20 fails without allocating, where an n near
        # 10**9 would build a huge 1 << n if the check computed it
        for n, size in [(10**20, 1), (10**20, 2), (1, 0), (1, 3), (2, 3)]:
            with pytest.raises(ValueError, match="amplitudes"):
                StateVector(n, (gr(1),) * size)

    def test_classical_state_indexing(self):
        # qubit 0 is the most significant index bit
        s = classical_state("10")
        assert s.amps[2] == gr(1)

    def test_states_are_immutable_hashable_and_copyable(self):
        # interning, the tables' id() dedupe and sets of states rely on it
        s = apply_circuit(zero_state(2), [ROT(0), PHASE(1)])
        same = apply_circuit(zero_state(2), [ROT(0), PHASE(1)])
        for name in ("n_qubits", "amps", "_v", "_d", "_amps", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(s, name, zero_state(2).amps)
            with pytest.raises(FrozenInstanceError):
                delattr(s, name)
        s.amps  # the amplitudes built on first read change nothing
        assert s == same and hash(s) == hash(same) and len({s, same}) == 1
        assert pickle.loads(pickle.dumps(s)) == s == copy.deepcopy(s)


class TestApplyGate:
    def test_rot_on_zero(self):
        s = apply_gate(zero_state(1), ROT(0))
        assert amps(s) == [(F(3, 5), 0), (F(4, 5), 0)]

    def test_x_flips(self):
        assert apply_gate(zero_state(1), X(0)) == basis_state(1, 1)

    def test_rot_twice_matches_hand_matrix_product(self):
        rot = ((ROT_COS, -ROT_SIN), (ROT_SIN, ROT_COS))
        rot2 = mat2_mul(rot, rot)
        assert rot2[0][0] == F(-7, 25) and rot2[1][0] == F(24, 25)
        s = apply_gate(apply_gate(zero_state(1), ROT(0)), ROT(0))
        assert amps(s) == [(F(-7, 25), 0), (F(24, 25), 0)]

    def test_cnot_and_phase(self):
        s = apply_circuit(zero_state(2), [X(0), CNOT(0, 1)])
        assert s == basis_state(2, 3)
        s = apply_circuit(zero_state(1), [X(0), PHASE(0)])
        assert amps(s) == [(0, 0), (0, 1)]

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(zero_state(1), X(1))
        with pytest.raises(ValueError):
            apply_gate(zero_state(2), CNOT(0, 2))

    def test_cnot_needs_distinct_qubits(self):
        with pytest.raises(ValueError):
            CNOT(1, 1)

    def test_unitarity_on_random_states(self):
        rng = Random(7)
        for _ in range(60):
            n = rng.randrange(1, 4)
            s = random_state(n, rng)
            g = random_gate(rng, n)
            assert apply_gate(s, g).norm_sq() == 1

    def test_gate_involutions(self):
        rng = Random(8)
        for _ in range(20):
            n = rng.randrange(1, 4)
            s = random_state(n, rng)
            t = rng.randrange(n)
            assert apply_gate(apply_gate(s, X(t)), X(t)) == s
            phased = s
            for _ in range(4):
                phased = apply_gate(phased, PHASE(t))
            assert phased == s
            if n >= 2:
                c = (t + 1) % n
                assert apply_gate(apply_gate(s, CNOT(c, t)), CNOT(c, t)) == s

    def test_every_op_hashes_apart(self):
        # the candidate-table build keys dicts by gate tuples and by
        # (output id, op); ops that hash alike walk one collision chain
        # through dataclass __eq__.  Equal ops still hash equal.
        for n in range(1, 6):
            ops = [op for _bits, op in _op_alphabet(n)]
            assert len({hash(op) for op in ops}) == len(ops)
            assert all(hash(op) == hash(type(op)(*statevec.operands(op))) for op in ops)

    def test_every_gate_maps_the_standard_basis_to_an_orthonormal_basis(self):
        # Basis checks exact orthonormality, so each simulated gate is unitary
        for n in (1, 2, 3):
            for _bits, op in _op_alphabet(n):
                if not isinstance(op, CALLC):
                    transformed_basis(n, [op])


def assert_step_matches_the_oracle(state, op):
    """One step equals the Fraction simulator's, amplitude for amplitude, and
    compares and hashes equal to the state built from the oracle's amps."""
    new, expected = apply_gate(state, op), reference_apply_gate(state, op)
    assert new.amps == expected.amps
    assert new == expected and hash(new) == hash(expected)
    return new


class TestIntegerKernel:
    """Gate steps and tensor products run on each state's integer form; the
    Fraction arithmetic they replaced (oracles.py) is the reference."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.lists(st.integers(0, 3), max_size=12),
    )
    def test_every_gate_matches_the_fraction_simulator(self, n, seed, from_random, rots):
        # a random state, or |0...0>, then a chain of ROT steps, then every op
        state = random_state(n, Random(seed)) if from_random else zero_state(n)
        for t in rots:
            state = assert_step_matches_the_oracle(state, ROT(t % n))
        for _bits, op in _op_alphabet(n):
            if not isinstance(op, CALLC):
                assert_step_matches_the_oracle(state, op)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 2**32 - 1))
    def test_tensor_matches_the_gaussian_rational_product(self, nx, ny, seed):
        rng = Random(seed)
        chain = [random_gate(rng, ny) for _ in range(rng.randrange(8))]
        for x, y in [
            (random_state(nx, rng), random_state(ny, rng)),
            (random_state(nx, rng), apply_circuit(zero_state(ny), chain)),
        ]:
            expected = state_of_parts(nx + ny, [c_mul(a, b) for a in amps(x) for b in amps(y)])
            joint = tensor(x, y)
            assert joint.amps == expected.amps
            assert joint == expected and hash(joint) == hash(expected)


class TestFidelity:
    def test_basic_values(self):
        assert fidelity(zero_state(1), zero_state(1)) == 1
        assert fidelity(zero_state(1), basis_state(1, 1)) == 0
        assert fidelity(zero_state(1), apply_gate(zero_state(1), ROT(0))) == F(9, 25)

    def test_symmetry(self):
        rng = Random(9)
        for _ in range(40):
            n = rng.randrange(1, 4)
            x, z = random_state(n, rng), random_state(n, rng)
            assert fidelity(x, z) == fidelity(z, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(zero_state(1), zero_state(2))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.lists(st.integers(0, 3), max_size=8),
    )
    def test_integer_kernel_matches_the_fraction_overlap(self, n, seed, from_random, rots):
        # dense random states or sparse basis states, each then stepped by a
        # chain of ROTs, a PHASE-stepped copy whose overlap is complex, and
        # orthogonal basis vectors; one binding of x scores every state
        rng = Random(seed)
        chain = [ROT(t % n) for t in rots]

        def state():
            if from_random:
                return apply_circuit(random_state(n, rng), chain)
            return apply_circuit(basis_state(n, rng.randrange(1 << n)), chain)

        x, z = state(), state()
        phased = apply_gate(x, PHASE(rng.randrange(n)))
        basis = transformed_basis(n, chain).vectors  # exactly orthonormal
        i, j = rng.sample(range(1 << n), 2)
        fx = fidelity_to(x)
        for a, b, exact in [
            (x, z, None),
            (z, x, None),
            (x, phased, None),
            (phased, x, None),
            (x, basis[i], None),
            (x, x, 1),
            (basis[i], basis[i], 1),
            (basis[i], basis[j], 0),
        ]:
            q = reference_fidelity(a, b)
            pair = fidelity_to(a)(b)
            assert pair == (q.numerator, q.denominator)
            assert type(pair[0]) is int and type(pair[1]) is int
            assert type(fidelity(a, b)) is Fraction and fidelity(a, b) == q
            assert exact is None or q == exact
            if a is x:
                assert fx(b) == pair
        for a, b in [(x, zero_state(n + 1)), (zero_state(n + 1), x)]:
            with pytest.raises(ValueError, match="dimension mismatch"):
                fidelity_to(a)(b)
            with pytest.raises(ValueError, match="dimension mismatch"):
                fidelity(a, b)

    @pytest.mark.parametrize("n", [2, 3])
    def test_pair_kernel_matches_the_fraction_fidelity(self, n):
        # every row of the table the sampled oracle reads, against classical,
        # rotated-basis, random and gate-built targets: the pair is the
        # reduced Fraction's numerator and denominator, so a draw of
        # randrange(den) < num is the draw the Fraction gave
        rng = Random(4200 + n)
        targets = [basis_state(n, i) for i in range(1 << n)]
        targets += rotated_basis(n).vectors
        targets += [random_state(n, rng) for _ in range(3)]
        targets += [apply_circuit(zero_state(n), [random_gate(rng, n) for _ in range(6)])
                    for _ in range(3)]
        rows = candidate_rows(n, 12)
        pairs = set()
        for target in targets:
            score = fidelity_to(target)
            for _idx, _prog, out in rows:
                num, den = score(out)
                q = reference_fidelity(target, out)
                assert type(num) is int and type(den) is int
                assert (num, den) == (q.numerator, q.denominator)
                pairs.add((num, den))
        assert {(0, 1), (1, 1)} <= pairs


@lru_cache(maxsize=None)
def table_outputs(n):
    """The distinct outputs of a candidate table at n qubits."""
    max_len = {1: 16, 2: 16, 3: 18, 4: 18}[n]
    return tuple(out for _idx, _prog, out in candidate_table(n, max_len).firsts)


class TestInnerProduct:
    """`fidelity_to` squares the overlap <x|z> it sums over the states'
    integer forms; the squared modulus of the Fraction sum over amps
    (oracles.py) is the reference."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans())
    def test_integer_kernel_matches_the_fraction_sum(self, n, seed, two_outputs):
        # pairs of random_state targets, table outputs and rotated basis
        # vectors, each scored in both orders
        rng = Random(seed)
        outputs = table_outputs(n)
        x, z = random_state(n, rng), rng.choice(outputs)
        y = rng.choice(outputs) if two_outputs else random_state(n, rng)
        w = rng.choice(rotated_basis(n).vectors)
        for a, b in [(x, z), (z, x), (z, y), (y, z), (x, y), (w, z), (x, w), (x, x), (z, z)]:
            q = reference_fidelity(a, b)
            assert fidelity_to(a)(b) == fidelity_to(b)(a) == (q.numerator, q.denominator)
        for a, b in [(x, zero_state(n + 1)), (zero_state(n + 1), z)]:
            with pytest.raises(ValueError, match="dimension mismatch"):
                fidelity_to(a)(b)


class TestPenaltyBits:
    def test_examples(self):
        assert penalty_bits(1) == 0
        assert penalty_bits(F(1, 4)) == 2
        assert penalty_bits(F(9, 25)) == 2
        assert penalty_bits(F(16, 25)) == 1
        assert penalty_bits(F(1, 2)) == 1

    def test_zero_is_infinite_not_an_error(self):
        assert penalty_bits(0) == INFINITE

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            penalty_bits(F(3, 2))
        with pytest.raises(ValueError):
            penalty_bits(F(-1, 2))

    def test_least_d_property(self):
        rng = Random(10)
        for _ in range(300):
            den = rng.randrange(1, 10**6)
            num = rng.randrange(1, den + 1)
            q = F(num, den)
            d = penalty_bits(q)
            assert q >= F(1, 1 << d)
            if d > 0:
                assert q < F(1, 1 << (d - 1))

    def test_matches_reference(self):
        # every a/b with b < 200, and the powers of two and their neighbours,
        # where an estimate from bit lengths is off by one
        pairs = [(a, b) for b in range(1, 200) for a in range(1, b + 1)]
        for k in range(1, 200):
            pairs += [(1, (1 << k) - 1), (1, 1 << k), (1, (1 << k) + 1)]
        for a, b in pairs:
            q = F(a, b)
            assert penalty_bits(q) == reference_penalty_bits(q.numerator, q.denominator)

    def test_agrees_with_float_away_from_boundaries(self):
        rng = Random(11)
        for _ in range(500):
            den = rng.randrange(1, 10**9)
            num = rng.randrange(1, den + 1)
            q = F(num, den)
            f = -math.log2(num / den)
            if abs(f - round(f)) < 2**-20:
                continue
            assert penalty_bits(q) == math.ceil(f)


class TestShannonFano:
    def test_lengths_for_zero_state(self):
        assert shannon_fano_lengths(standard_basis(1), zero_state(1)) == [0, INFINITE]

    def test_lengths_for_rotated_state(self):
        z = apply_gate(zero_state(1), ROT(0))
        assert shannon_fano_lengths(standard_basis(1), z) == [2, 1]

    def test_kraft_style_bound_on_random_states(self):
        rng = Random(12)
        for _ in range(50):
            n = rng.randrange(1, 4)
            z = random_state(n, rng)
            basis = standard_basis(n)
            lengths = shannon_fano_lengths(basis, z)
            finite = [l for l in lengths if l != INFINITE]
            assert sum(F(1, 1 << l) for l in finite) <= 2
            for e, l in zip(basis.vectors, lengths):
                if l != INFINITE:
                    assert F(1, 1 << l) <= fidelity(e, z)
            assert sum(fidelity(e, z) for e in basis.vectors) == 1

    def test_codewords_are_prefix_free_with_matching_lengths(self):
        rng = Random(13)
        for _ in range(25):
            n = rng.randrange(1, 4)
            z = random_state(n, rng)
            basis = standard_basis(n)
            code = shannon_fano_code(basis, z)
            lengths = shannon_fano_lengths(basis, z)
            for i, w in code.items():
                assert len(w) == lengths[i]
            words = sorted(code.values(), key=len)
            for i, w in enumerate(words):
                for other in words[i + 1 :]:
                    assert not other.startswith(w) or other == w


    def test_the_codes_bind_the_state_once(self, monkeypatch):
        # fidelity is symmetric, so z's support is read once for the basis
        z = random_state(3, Random(14))
        basis = rotated_basis(3)
        expected = shannon_fano_code(basis, z), shannon_fano_lengths(basis, z)
        kernel = CountedKernel(statevec.fidelity_to)
        monkeypatch.setattr(statevec, "fidelity_to", kernel)
        got = shannon_fano_code(basis, z), shannon_fano_lengths(basis, z)
        assert got == expected
        assert (kernel.binds, kernel.calls) == (2, 2 * len(basis.vectors))


class TestBasis:
    def test_standard_basis_is_orthonormal(self):
        standard_basis(3)  # constructor enforces exact orthonormality

    def test_the_orthogonality_check_binds_each_vector_once(self, monkeypatch):
        vectors = rotated_basis(3).vectors
        kernel = CountedKernel(statevec.fidelity_to)
        monkeypatch.setattr(statevec, "fidelity_to", kernel)
        Basis(vectors)
        assert (kernel.binds, kernel.calls, kernel.positive) == (8, 8 * 7 // 2, 0)

    def test_non_orthogonal_rejected(self):
        rot = apply_gate(zero_state(1), ROT(0))
        with pytest.raises(ValueError):
            Basis((zero_state(1), rot))

    def test_an_imaginary_overlap_is_not_orthogonal(self):
        # <0|s> = 3i/5: the real part is zero, so only the imaginary part
        # tells these two apart from an orthogonal pair
        s = StateVector(1, (gr(0, F(3, 5)), gr(F(4, 5))))
        assert reference_inner_product(zero_state(1), s) == gr(0, F(3, 5))
        assert fidelity_to(zero_state(1))(s) == fidelity_to(s)(zero_state(1)) == (9, 25)
        with pytest.raises(ValueError, match="not orthogonal"):
            Basis((zero_state(1), s))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rotated_basis_is_accepted(self, n):
        vectors = rotated_basis(n).vectors
        assert len(vectors) == 1 << n
        for i, v in enumerate(vectors):
            for j, w in enumerate(vectors):
                assert reference_inner_product(v, w) == (gr(1) if i == j else gr(0))

    def test_transformed_basis_stays_orthonormal(self):
        b = transformed_basis(2, [ROT(0), CNOT(0, 1), ROT(1)])
        for i, v in enumerate(b.vectors):
            for j, w in enumerate(b.vectors):
                expected = F(1) if i == j else F(0)
                assert fidelity(v, w) == expected


class TestTensor:
    def test_classical_product(self):
        assert tensor(zero_state(1), basis_state(1, 1)) == classical_state("01")

    def test_rot_product_expansion(self):
        s = tensor(apply_gate(zero_state(1), ROT(0)), zero_state(1))
        assert amps(s) == [(F(3, 5), 0), (0, 0), (F(4, 5), 0), (0, 0)]

    def test_conjugate_factors_cancel_into_the_reduced_form(self):
        # (3+4i)/5 times (3-4i)/5 is 1: the product over 25 must reduce to
        # the basis state's form to compare and hash equal to it
        x = StateVector(1, (gr(F(3, 5), F(4, 5)), gr(0)))
        y = StateVector(1, (gr(F(3, 5), F(-4, 5)), gr(0)))
        joint = tensor(x, y)
        assert joint == basis_state(2, 0) and hash(joint) == hash(basis_state(2, 0))
        assert joint.amps == basis_state(2, 0).amps

    def test_norm_multiplicativity_on_random_states(self):
        rng = Random(14)
        for _ in range(25):
            x = random_state(rng.randrange(1, 3), rng)
            y = random_state(rng.randrange(1, 3), rng)
            assert tensor(x, y).norm_sq() == 1


class TestRandomState:
    """random_state runs its Givens chain on the integer form; the Fraction
    chain it replaced (oracles.py) is the reference."""

    def test_exact_unit_norm_and_reproducible(self):
        a = random_state(3, Random(99))
        b = random_state(3, Random(99))
        assert a == b
        assert a.norm_sq() == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_states_and_rng_streams_match_the_fraction_chain(self, n):
        for seed in range(300):
            rng, ref_rng = Random(seed), Random(seed)
            state, ref = random_state(n, rng), reference_random_state(n, ref_rng)
            assert state == ref and amps(state) == amps(ref)
            assert rng.getstate() == ref_rng.getstate()

    def test_random_states_and_bases_use_no_fraction_arithmetic(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Fraction arithmetic in the library")

        monkeypatch.setattr(statevec, "Fraction", refuse)
        monkeypatch.setattr(statevec, "GaussianRational", refuse)
        for n in (1, 2, 3):
            for seed in range(5):
                random_state(n, Random(seed))
            rotated_basis(n)
            Basis(tuple(basis_state(n, i) for i in range(1 << n)))
        with pytest.raises(ValueError, match="not orthogonal"):
            Basis((zero_state(1), apply_gate(zero_state(1), ROT(0))))


def signed_fraction(rng):
    f = random_fraction(rng)
    return -f if rng.random() < 0.5 else f


def unit_parts(rng, m):
    """m + 1 rationals whose squares sum to exactly 1: the inverse
    stereographic image (2v, |v|^2 - 1) / (|v|^2 + 1) of m random ones."""
    v = [signed_fraction(rng) for _ in range(m)]
    s = sum(x * x for x in v)
    return [2 * x / (s + 1) for x in v] + [(s - 1) / (s + 1)]


@st.composite
def amplitude_tuples(draw):
    """(n, amps): 2^n random Gaussian-rational amplitudes, of unit norm or
    not, with whole parts as plain ints or not."""
    n = draw(st.sampled_from((1, 2, 3)))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    m = 2 << n  # real and imaginary parts
    if draw(st.booleans()):
        parts = unit_parts(rng, m - 1)
        rng.shuffle(parts)
    else:
        parts = [signed_fraction(rng) for _ in range(m)]
    if draw(st.booleans()):
        parts = [int(x) if x.denominator == 1 else x for x in parts]
    return n, tuple(map(GaussianRational, parts[::2], parts[1::2]))


def assert_accepted_exactly_when_unit(n, amps):
    """The integer sum equals the Fraction sum, and StateVector takes the
    amplitudes exactly when that sum is 1."""
    reference = reference_norm_sq(amps)
    v, d = _lattice([x for a in amps for x in (a.re, a.im)])
    assert Fraction(sum(x * x for x in v), d * d) == reference
    if reference == 1:
        assert StateVector(n, amps).norm_sq() == 1
    else:
        with pytest.raises(ValueError, match="unit norm"):
            StateVector(n, amps)


class TestUnitNorm:
    """The unit-norm check sums over one common denominator in ints; the
    Fraction sum it replaced (oracles.py) is the reference."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(amplitude_tuples())
    def test_integer_sum_matches_the_fraction_sum(self, case):
        assert_accepted_exactly_when_unit(*case)

    def test_random_states_off_powers_of_five(self):
        states = [random_state(n, Random(seed)) for n in (1, 2, 3) for seed in range(20)]
        dens = {x.denominator for s in states for a in s.amps for x in (a.re, a.im)}
        assert any(den > 1 and den % 5 for den in dens)  # Pythagorean, not 5^r
        for s in states:
            assert_accepted_exactly_when_unit(s.n_qubits, s.amps)

    def test_one_part_in_five_to_the_thirty_off_unit_is_rejected(self):
        tiny = F(1, 5**15)
        assert_accepted_exactly_when_unit(1, (gr(1), gr(0, tiny)))
        assert reference_norm_sq((gr(1), gr(0, tiny))) == 1 + F(1, 5**30)
        # a machine state over 5^r, one part nudged by 5^-30
        s = apply_circuit(zero_state(2), [ROT(0), ROT(1), PHASE(0), ROT(0)])
        amps = (gr(s.amps[0].re + tiny**2, s.amps[0].im),) + s.amps[1:]
        assert_accepted_exactly_when_unit(2, s.amps)
        assert_accepted_exactly_when_unit(2, amps)
        record = state_to_json(s)  # and read back, as from a cache file
        record["amps"][0][:2] = [str(amps[0].re.numerator), str(amps[0].re.denominator)]
        with pytest.raises(ValueError, match="unit norm"):
            state_from_json(record)

    def test_int_parts(self):
        for n, amps in [
            (1, (GaussianRational(0, 1), GaussianRational(0, 0))),
            (1, (GaussianRational(F(3, 5), 0), GaussianRational(0, F(-4, 5)))),
            (1, (GaussianRational(1, 0), GaussianRational(0, -1))),
            (2, (GaussianRational(-1, 0),) + (GaussianRational(0, 0),) * 3),
            (2, (GaussianRational(1, 1),) + (GaussianRational(0, 0),) * 3),
        ]:
            assert_accepted_exactly_when_unit(n, amps)


class TestSerialization:
    def test_round_trip(self):
        rng = Random(15)
        for _ in range(10):
            s = random_state(rng.randrange(1, 4), rng)
            assert state_from_json(state_to_json(s)) == s

    def test_decimal_strings_carry_arbitrary_precision(self):
        s = random_state(2, Random(16))
        obj = state_to_json(s)
        assert all(isinstance(part, str) for row in obj["amps"] for part in row)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            state_from_json({"n": 1, "amps": [["1", "1"]]})
        with pytest.raises(ValueError):
            state_from_json({"n": 1, "amps": [["1", "1", "0", "1"], ["1", "1", "0", "1"]]})
        with pytest.raises(ValueError, match="malformed"):  # a zero denominator
            state_from_json({"n": 1, "amps": [["1", "0", "0", "1"], ["0", "1", "0", "1"]]})
        with pytest.raises(ValueError, match="amplitudes"):
            state_from_json({"n": str(10**20), "amps": [["1", "1", "0", "1"]]})

    @pytest.mark.parametrize(
        "record",
        [
            {"n": 1.9, "amps": [["1", "1", "0", "1"], ["0", "1", "0", "1"]]},
            {"n": True, "amps": [["1", "1", "0", "1"], ["0", "1", "0", "1"]]},
            {"n": 1, "amps": [[1.7, "1", "0", "1"], ["0", "1", "0", "1"]]},
            {"n": 1, "amps": [["1", 1.0, "0", "1"], ["0", "1", "0", "1"]]},
            {"n": 1, "amps": [[True, "1", "0", "1"], ["0", "1", "0", "1"]]},
        ],
        ids=["float-n", "bool-n", "float-part", "float-den", "bool-part"],
    )
    def test_a_bool_or_float_is_not_an_integer(self, record):
        # int() would read each as |0> on one qubit
        with pytest.raises(ValueError, match="malformed"):
            state_from_json(record)

    def test_integer_parts_are_read(self):
        assert state_from_json({"n": 1, "amps": [[1, 1, 0, 1], [0, 1, 0, 1]]}) == zero_state(1)

    def test_parts_are_written_in_lowest_terms(self):
        rng = Random(17)
        for s in [random_state(3, rng), apply_circuit(zero_state(2), [ROT(0), ROT(1)])]:
            expected = [
                [str(x) for a in (amp.re, amp.im) for x in (a.numerator, a.denominator)]
                for amp in s.amps
            ]
            assert state_to_json(s) == {"n": s.n_qubits, "amps": expected}
