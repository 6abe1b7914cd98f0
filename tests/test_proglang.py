from fractions import Fraction
from random import Random

import pytest

from qkclab import (
    CALLC,
    CNOT,
    ROT,
    X,
    Program,
    decode,
    decode_prefix,
    encode,
    enumerate_decoded,
    enumerate_programs,
    kraft_sum,
    program_from_json,
    program_to_json,
    verify_prefix_free,
)
from qkclab.proglang import _op_alphabet, gamma_encode, index_width

from oracles import (
    brute_force_decodables,
    random_gate_list,
    reference_decode_prefix,
    reference_op_fields,
)


class TestGammaAndWidths:
    def test_gamma_examples(self):
        assert gamma_encode(1) == "1"
        assert gamma_encode(2) == "010"
        assert gamma_encode(3) == "011"
        assert gamma_encode(4) == "00100"

    def test_index_width(self):
        assert index_width(1) == 1  # one bit even when only index 0 is legal
        assert index_width(2) == 1
        assert index_width(3) == 2
        assert index_width(4) == 2


class TestEncode:
    def test_empty_program(self):
        assert encode([], 2).bits == "1"

    def test_single_x(self):
        p = encode([X(0)], 2)
        assert p.bits == "0100000" and p.length == 7

    def test_callc_length_is_constant_in_n(self):
        assert encode([CALLC()], 1).length == 6
        assert encode([CALLC()], 2).length == 6
        assert encode([CALLC()], 3).length == 6

    def test_index_overflow_rejected(self):
        with pytest.raises(ValueError):
            encode([X(2)], 2)


class TestDecode:
    def test_header_only(self):
        parsed = decode_prefix("1", 2)
        assert parsed is not None
        program, consumed = parsed
        assert program.gates == () and consumed == 1

    def test_invalid_opcode(self):
        assert decode("0101010", 2) is None  # opcode 101

    def test_round_trip_cnot(self):
        p = encode([CNOT(0, 1)], 2)
        decoded = decode(p.bits, 2)
        assert decoded.gates == (CNOT(0, 1),)

    def test_trailing_bits_rejected_by_default(self):
        p = encode([X(0)], 2)
        assert decode(p.bits + "0", 2) is None
        assert decode_prefix(p.bits + "0", 2)[1] == p.length

    def test_truncated_stream(self):
        p = encode([X(0)], 2)
        assert decode(p.bits[:-1], 2) is None

    def test_cnot_control_equals_target_fails(self):
        bits = gamma_encode(2) + "001" + "1" + "1"
        assert decode(bits, 2) is None

    def test_index_at_least_n_fails(self):
        bits = gamma_encode(2) + "000" + "11"  # X(3) at n=3
        assert decode(bits, 3) is None
        bits = gamma_encode(2) + "000" + "1"  # X(1) at n=1
        assert decode(bits, 1) is None

    def test_callc_forbidden_in_conditionals(self):
        p = encode([CALLC()], 2)
        assert decode(p.bits, 2) is not None
        assert decode(p.bits, 2, allow_callc=False) is None

    def test_round_trip_random_programs(self):
        rng = Random(21)
        for _ in range(1000):
            n = rng.randrange(1, 4)
            gates = tuple(random_gate_list(rng, n, 6, allow_callc=True))
            p = encode(gates, n)
            assert decode(p.bits, n).gates == gates


class TestAgainstLadderDecoder:
    """The OPS-driven decoder and alphabet against the per-opcode ladder
    they replaced (oracles.py), exhaustively."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_decode_prefix_matches_on_every_short_string(self, n):
        for length in range(13):
            for v in range(1 << length):
                bits = format(v, f"0{length}b") if length else ""
                for allow_callc in (True, False):
                    assert decode_prefix(bits, n, allow_callc) == reference_decode_prefix(
                        bits, n, allow_callc
                    ), (bits, allow_callc)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_alphabet_matches(self, n):
        assert _op_alphabet(n) == reference_op_fields(n)


class TestEnumerate:
    def test_length_one(self):
        assert [p.bits for p in enumerate_programs(1, 2)] == ["1"]

    def test_matches_brute_force_scan(self):
        # the exhaustive scan is the oracle for both membership and order
        for n, max_len in ((1, 12), (2, 10), (3, 12)):
            fast = [p.bits for p in enumerate_programs(max_len, n)]
            assert fast == brute_force_decodables(max_len, n)

    def test_count_at_seven_bits(self):
        progs = list(enumerate_programs(7, 2))
        assert len(progs) == 8  # empty, CALLC, and six one-qubit gates
        assert sum(1 for p in progs if p.length == 7) == 6

    def test_order_is_by_length_then_value(self):
        progs = list(enumerate_programs(12, 2))
        keys = [(p.length, p.value) for p in progs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("n, max_len", [(1, 18), (2, 16), (3, 20), (4, 16)])
    def test_decoded_enumeration_carries_each_programs_gates(self, n, max_len):
        pairs = list(enumerate_decoded(max_len, n))
        assert all(decode(prog.bits, n).gates == gates for prog, gates in pairs)
        assert [prog for prog, _gates in pairs] == list(enumerate_programs(max_len, n))

    def test_enumeration_is_reproducible(self):
        a = [p.bits for p in enumerate_programs(13, 3)]
        b = [p.bits for p in enumerate_programs(13, 3)]
        assert a == b


class TestPrefixFreedom:
    def test_holds_by_construction(self):
        assert verify_prefix_free(10, 2)
        assert verify_prefix_free(14, 1)

    def test_no_enumerated_program_prefixes_another(self):
        progs = [p.bits for p in enumerate_programs(12, 2)]
        as_set = set(progs)
        for bits in progs:
            for cut in range(1, len(bits)):
                assert bits[:cut] not in as_set

    def test_corrupted_decoder_is_caught(self):
        # negative control: accepting trailing bits breaks prefix-freedom
        lenient = lambda bits: decode_prefix(bits, 2) is not None
        assert not verify_prefix_free(8, 2, decodes=lenient)


class TestKraft:
    def test_kraft_inequality_exact(self):
        assert kraft_sum(20, 1) <= 1
        assert kraft_sum(20, 2) <= 1
        assert kraft_sum(16, 3) <= 1

    def test_kraft_sum_matches_brute_force(self):
        total = sum(
            Fraction(1, 1 << len(bits)) for bits in brute_force_decodables(12, 2)
        )
        assert kraft_sum(12, 2) == total


class TestProgram:
    def test_bit_strings_accepted(self):
        for bits in ("", "0", "1", "0100000"):
            assert Program(bits).bits == bits

    @pytest.mark.parametrize("bits", ["10x1", "0 1", "01\n", " 01", "0\uff121", "012", "2"])
    def test_any_other_character_rejected(self, bits):
        # inner, trailing, leading, full-width and out-of-range characters
        with pytest.raises(ValueError, match="not a bit string"):
            Program(bits)


class TestSerialization:
    def test_hex_round_trip(self):
        rng = Random(22)
        for _ in range(200):
            n = rng.randrange(1, 4)
            p = encode(random_gate_list(rng, n, 5, allow_callc=True), n)
            assert program_from_json(program_to_json(p)) == p

    def test_leading_zero_bits_survive(self):
        p = Program("0100000")
        assert program_from_json(program_to_json(p)).bits == "0100000"

    def test_empty_program_round_trip(self):
        assert program_to_json(Program("")) == {"len": 0, "bits_hex": "0"}
        assert program_from_json({"len": 0, "bits_hex": "0"}) == Program("")

    @pytest.mark.parametrize(
        "record",
        [
            {"len": 0, "bits_hex": "1"},
            {"len": 3, "bits_hex": "8"},
            {"len": 2, "bits_hex": "-1"},
            {"len": True, "bits_hex": "1"},
            {"len": 3.9, "bits_hex": "5"},
            {"len": 3.0, "bits_hex": "5"},
        ],
        ids=["value-past-empty", "value-past-len", "negative-value", "bool-len",
             "float-len", "integral-float-len"],
    )
    def test_bad_numbers_rejected(self, record):
        with pytest.raises(ValueError):
            program_from_json(record)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            program_from_json({"len": 2, "bits_hex": "f"})
        with pytest.raises(ValueError):
            program_from_json({"bits_hex": "f"})
        with pytest.raises(ValueError):
            Program("10x1")
