import time
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from random import Random

import pytest

from qkclab import (
    CALLC,
    CNOT,
    PHASE,
    ROT,
    X,
    Program,
    callc_free_gates,
    decode,
    encode,
    enumerate_decoded,
    enumerate_programs,
    kraft_sum,
    program_from_json,
    program_to_json,
    verify_prefix_free,
)
import qkclab.proglang as proglang
from qkclab.proglang import (
    OPS,
    _BodyCounts,
    _field_count,
    _op_alphabet,
    _opcode_fields,
    gamma_encode,
    index_width,
)

from oracles import (
    Counted,
    brute_force_decodables,
    random_gate_list,
    reference_decode_prefix,
    reference_enumerate,
    reference_kraft_sum,
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
        assert decode("1", 2) == ()

    def test_invalid_opcode(self):
        assert decode("0101010", 2) is None  # opcode 101

    def test_round_trip_cnot(self):
        p = encode([CNOT(0, 1)], 2)
        assert decode(p.bits, 2) == (CNOT(0, 1),)

    def test_a_wide_register_decodes_at_once(self):
        # decode reads each field's opcode and operands, with no per-width
        # table of the ops, so a short program decodes at once at any width
        n = 10**4
        gates = (X(0), CNOT(n - 1, 3), CALLC())
        bits = encode(gates, n).bits
        start = time.perf_counter()
        assert decode(bits, n) == gates
        assert decode(bits[:-1], n) is None and decode(bits + "0", n) is None
        assert time.perf_counter() - start < 1

    def test_trailing_bits_rejected_by_default(self):
        p = encode([X(0)], 2)
        assert decode(p.bits + "0", 2) is None
        assert reference_decode_prefix(p.bits + "0", 2)[1] == p.length

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
        assert decode(p.bits, 2) == (CALLC(),)
        with pytest.raises(ValueError, match="CALLC-free"):
            callc_free_gates(p, 2)
        assert callc_free_gates(encode([X(1)], 2), 2) == (X(1),)

    def test_round_trip_random_programs(self):
        rng = Random(21)
        for _ in range(1000):
            n = rng.randrange(1, 4)
            gates = tuple(random_gate_list(rng, n, 6, allow_callc=True))
            p = encode(gates, n)
            assert decode(p.bits, n) == gates


class TestAgainstLadderDecoder:
    """The alphabet-driven decoder and the alphabet against the per-opcode
    ladder (oracles.py), exhaustively."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_decode_matches_on_every_short_string(self, n):
        # a whole string decodes exactly when the ladder parses all of it,
        # and passes callc_free_gates exactly when the ladder that refuses
        # CALLC does
        def callc_free_or_none(bits):
            try:
                return callc_free_gates(Program(bits), n)
            except ValueError:
                return None

        for length in range(13):
            for v in range(1 << length):
                bits = format(v, f"0{length}b") if length else ""
                for allow_callc, decoder in ((True, lambda b: decode(b, n)),
                                             (False, callc_free_or_none)):
                    parsed = reference_decode_prefix(bits, n, allow_callc)
                    whole = parsed[0] if parsed and parsed[1] == length else None
                    assert decoder(bits) == whole, (bits, allow_callc)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_alphabet_matches(self, n):
        # in the order of the fields' bits, which the enumeration order needs
        alphabet = _op_alphabet(n)
        assert alphabet == reference_op_fields(n)
        assert [bits for bits, _op in alphabet] == sorted(bits for bits, _op in alphabet)


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
        stream = list(enumerate_decoded(max_len, n))
        assert all(decode(prog.bits, n) == gates for _index, prog, gates in stream)
        assert [prog for _index, prog, _gates in stream] == list(enumerate_programs(max_len, n))
        assert [index for index, _prog, _gates in stream] == list(range(len(stream)))

    @pytest.mark.parametrize("n, max_len", [(1, 18), (2, 16), (3, 20), (4, 24)])
    def test_stream_matches_the_sorted_build(self, n, max_len):
        expected = [(index, *pair) for index, pair in enumerate(reference_enumerate(max_len, n))]
        assert list(enumerate_decoded(max_len, n)) == expected

    @pytest.mark.parametrize("n, max_len", [(1, 18), (2, 16), (3, 20), (4, 24), (5, 26)])
    def test_the_stream_without_callc_is_the_full_stream_filtered(self, n, max_len):
        # the skipped CALLC branches are counted, so every index is the one
        # the program has in the full enumeration
        full = enumerate_decoded(max_len, n, callc=True)
        filtered = [row for row in full if CALLC not in map(type, row[2])]
        assert list(enumerate_decoded(max_len, n, callc=False)) == filtered

    def test_a_skipped_opcode_before_others_is_counted(self, monkeypatch):
        # CALLC is the last opcode, so nothing follows its skipped branch;
        # moved before ROT and PHASE, the rows after it must still take
        # their index in the full enumeration
        ops = (X, CNOT, CALLC, ROT, PHASE)
        monkeypatch.setattr(proglang, "OPS", ops)
        monkeypatch.setattr(proglang, "_ARITY", tuple(len(fields(op)) for op in ops))
        full = list(enumerate_decoded(16, 2))
        keys = [(prog.length, prog.value) for _index, prog, _gates in full]
        assert keys == sorted(keys) and [row[0] for row in full] == list(range(len(full)))
        assert all(decode(prog.bits, 2) == gates for _index, prog, gates in full)
        assert encode([CALLC(), ROT(0)], 2).bits == "011" + "010" + "0110"  # CALLC is 010
        filtered = [row for row in full if CALLC not in map(type, row[2])]
        assert list(enumerate_decoded(16, 2, callc=False)) == filtered

    @pytest.mark.parametrize("n, max_len, built, of", [(3, 20, 970, 1653), (4, 24, 12697, 25711)])
    def test_the_stream_without_callc_builds_no_callc_program(self, n, max_len, built, of):
        stream = list(enumerate_decoded(max_len, n, callc=False))
        assert len(stream) == built
        assert not any(CALLC in map(type, gates) for _index, _prog, gates in stream)
        assert stream[-1][0] < of == sum(1 for _row in enumerate_decoded(max_len, n))

    def test_stream_is_lazy(self):
        # the first program comes before any longer one is built
        for callc in (True, False):
            start = time.perf_counter()
            assert next(enumerate_decoded(10**4, 5, callc)) == (0, Program("1"), ())
            assert time.perf_counter() - start < 1

    def test_a_wide_register_builds_its_fields_as_they_are_read(self, monkeypatch):
        # at n = 1000 the first CNOT program is the 18,008th, after programs
        # that hold each of the 1000 X, ROT and PHASE fields and CALLC's one
        # field; of the 999,000 CNOT fields only the first, (0, 1), is built
        built = Counted(proglang._op_bits)
        monkeypatch.setattr(proglang, "_op_bits", built)
        for index, _program, gates in enumerate_decoded(26, 1000):
            if any(isinstance(gate, CNOT) for gate in gates):
                break
        assert (index, gates) == (18007, (CNOT(0, 1),))
        assert built.calls == 3 * 1000 + 1 + 1

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
        lenient = lambda bits: reference_decode_prefix(bits, 2) is not None
        assert not verify_prefix_free(8, 2, decodes=lenient)


class TestCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_field_count_is_the_number_of_fields_listed(self, n):
        for code in range(len(OPS)):
            assert _field_count(code, n) == sum(1 for _field in _opcode_fields(code, n))

    @pytest.mark.parametrize("n, max_len", [(1, 20), (2, 20), (3, 20), (4, 24), (5, 26)])
    def test_counts_equal_the_enumeration(self, n, max_len):
        # per length and gate count: a header for k gates, then a body of
        # k fields that fills the rest
        listed = Counter((prog.length, len(gates))
                         for _index, prog, gates in enumerate_decoded(max_len, n))
        rows = _BodyCounts(n).cover(max_len)
        counted = Counter({
            (len(gamma_encode(k + 1)) + size, k): rows[k][size]
            for k in range(len(rows))
            for size in range(max_len - len(gamma_encode(k + 1)) + 1)
            if rows[k][size]
        })
        assert counted == listed

    def test_a_wide_register_counts_its_fields_without_building_them(self, monkeypatch):
        built = Counted(proglang._op_bits)
        monkeypatch.setattr(proglang, "_op_bits", built)
        assert [count for _code, _width, count in _BodyCounts(1000).codes] == [
            1000, 999000, 1000, 1000, 1
        ]
        assert built.calls == 0


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

    @pytest.mark.parametrize("n, max_len", [(1, 20), (2, 20), (3, 16), (4, 16)])
    def test_kraft_sum_by_count_matches_the_enumeration_sum(self, n, max_len):
        assert kraft_sum(max_len, n) == reference_kraft_sum(max_len, n)

    def test_kraft_sum_reads_no_program(self, monkeypatch):
        def no_program(*args):
            raise AssertionError("kraft_sum enumerated a program")

        monkeypatch.setattr(proglang, "_sequences", no_program)
        start = time.perf_counter()
        assert kraft_sum(200, 8) <= 1
        assert time.perf_counter() - start < 0.5


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
