import json
import re
from fractions import Fraction

import pytest

from cubespec import (
    AffineSubspace,
    Blueprint,
    LOWER,
    TradePair,
    make_function,
    min_support,
    phi,
    tensor,
)
from cubespec import serialize


class TestFractions:
    def test_round_trip(self):
        for text in ("0", "-7", "3/4", "-22/7"):
            assert str(serialize.fraction_from_str(text)) == text

    def test_strict_parsing(self):
        for bad in ("1.5", "1/0", "a", "1/-2", "", "07/", "1\n", "3/4\n", "+1", " 1", "1/ 2",
                    "1_000", "--1", "-", "/2", "1/2/3", "1e3", "0x10", "3/007", "9" * 5000,
                    "\u0663", "1/1\u0663", "\uff11"):  # Arabic-Indic and fullwidth digits
            with pytest.raises(ValueError):
                serialize.fraction_from_str(bad)
        for good, value in (("007", 7), ("-0", 0), ("-12/8", Fraction(-3, 2)), ("0/5", 0),
                            ("12345678901234567890/98765432109876543210", Fraction(13717421, 109739369))):
            got = serialize.fraction_from_str(good)
            assert got == value == Fraction(good) and type(got) is Fraction
        with pytest.raises(ValueError):
            serialize.fraction_from_str(2)


class TestFunctionFormat:
    def test_round_trip(self):
        f = make_function(2, [Fraction(1, 3), -2, 0, "5/7"])
        payload = serialize.function_to_dict(f)
        assert payload == {"n": 2, "values": ["1/3", "-2", "0", "5/7"]}
        assert serialize.function_from_dict(payload).values == f.values

    def test_each_value_object_is_formatted_once(self, monkeypatch):
        # the strings come from the stored ints, so equal values held by
        # distinct objects are formatted once per distinct value
        half, minus_three = Fraction(1, 2), Fraction(-3)
        values = [half, minus_three, half, Fraction(2, 4), half, Fraction(0), Fraction(-3), minus_three]
        f = make_function(3, values)
        expected = [str(v) for v in values]
        calls = []
        fraction_str = Fraction.__str__
        monkeypatch.setattr(Fraction, "__str__", lambda v: calls.append(v) or fraction_str(v))
        assert serialize.function_to_dict(f) == {"n": 3, "values": expected}
        assert len(calls) == len(set(values)) == 3 < len({id(v) for v in values})

    def test_emitted_json_reparses_identically(self):
        f = tensor(phi(2), phi(1))
        text = serialize.dumps(serialize.function_to_dict(f))
        again = serialize.function_from_dict(json.loads(text))
        assert again.values == f.values and again.n == f.n

    def test_validation(self):
        with pytest.raises(ValueError):
            serialize.function_from_dict({"values": ["1"]})
        with pytest.raises(ValueError):
            serialize.function_from_dict({"n": 1, "values": ["1"]})
        with pytest.raises(ValueError):
            serialize.function_from_dict({"n": "1", "values": ["1", "0"]})
        with pytest.raises(ValueError):
            serialize.function_from_dict({"n": True, "values": ["1", "0"]})
        with pytest.raises(ValueError):
            serialize.function_from_dict(["1", "0"])

    @pytest.mark.parametrize("bad", [1, True, None, [0], {"a": 1}], ids=repr)
    def test_non_string_entries_fail_as_strings_do(self, bad):
        # a non-string entry may be unhashable; it must not reach a cache keyed by entry
        message = f"not a 'p' or 'p/q' rational string: {bad!r}"
        for values in ([bad, "1"], ["1", bad]):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                serialize.function_from_dict({"n": 1, "values": values})

    def test_the_first_bad_entry_is_named(self):
        for values, first in ((["x", 1, "1", "1"], "'x'"), ([1, "x", "1", "1"], "1"),
                              (["1", "1/0", "y", "1/0"], "'1/0'")):
            with pytest.raises(ValueError, match=f"string: {re.escape(first)}$"):
                serialize.function_from_dict({"n": 2, "values": values})

    def test_each_distinct_string_becomes_one_fraction(self, monkeypatch):
        # each distinct string is parsed once, and each distinct value is one Fraction
        values = ["1/2", "2/4", "1/2", "0", "-1", "0", "1/2", "-1"]
        parsed = []
        parse = serialize.fraction_from_str
        monkeypatch.setattr(serialize, "fraction_from_str", lambda text: parsed.append(text) or parse(text))
        f = serialize.function_from_dict({"n": 3, "values": values})
        assert sorted(parsed) == sorted(set(values))
        assert f.values == tuple(map(Fraction, values))
        assert len({id(v) for v in f.values}) == len(set(f.values)) == 3


class TestBitstrings:
    def test_coordinate_one_is_leftmost(self):
        assert serialize.vertex_to_bitstring(1, 4) == "1000"
        assert serialize.vertex_to_bitstring(0b0110, 4) == "0110"
        assert serialize.vertex_from_bitstring("1000", 4) == 1
        assert serialize.vertex_from_bitstring("0011", 4) == 0b1100

    def test_round_trip_all_codes(self):
        for code in range(16):
            s = serialize.vertex_to_bitstring(code, 4)
            assert serialize.vertex_from_bitstring(s, 4) == code

    def test_validation(self):
        with pytest.raises(ValueError):
            serialize.vertex_to_bitstring(4, 2)
        with pytest.raises(ValueError):
            serialize.vertex_from_bitstring("102", 3)
        with pytest.raises(ValueError):
            serialize.vertex_from_bitstring("01", 3)


def test_trade_pair_round_trip():
    tp = TradePair(frozenset({0, 3}), frozenset({1, 2}), 2)
    payload = serialize.trade_pair_to_dict(tp)
    assert payload == {"n": 2, "t0": ["00", "11"], "t1": ["10", "01"]}
    assert serialize.trade_pair_from_dict(payload) == tp


def test_affine_subspace_round_trip():
    sub = AffineSubspace(4, 0b0001, (0b0110,))
    payload = serialize.affine_subspace_to_dict(sub)
    assert payload["translation"] == "1000"
    assert payload["basis"] == ["0110"]
    assert payload["dimension"] == 1
    assert serialize.affine_subspace_from_dict(payload) == sub


def test_blueprint_round_trip():
    bp = Blueprint(LOWER, (1,), (2,), 1, 4)
    payload = serialize.blueprint_to_dict(bp)
    assert payload == {"case": "LOWER", "odd": [1], "even": [2], "r": 1}


@pytest.mark.parametrize("payload", [
    {},
    [],
    {"case": "LOWER", "odd": [1], "even": [2], "r": True},
    {"case": "LOWER", "odd": [True], "even": [2], "r": 1},
    {"case": "LOWER", "odd": ["1"], "even": [2], "r": 1},
])
def test_blueprint_validation(payload):
    # No command decodes a blueprint; a decoder would meet these two checks.
    with pytest.raises(ValueError):
        case, odd, even, r = serialize.fields(payload, case=str, odd=list, even=list, r=int)
        Blueprint(case, tuple(odd), tuple(even), r, 4)


def test_search_report_timing_is_opt_in():
    report = min_support(2, 1, 1)
    assert report.elapsed is not None
    hidden = serialize.search_report_to_dict(report)
    assert hidden["elapsed"] is None
    shown = serialize.search_report_to_dict(report, with_timing=True)
    assert shown["elapsed"] == report.elapsed
    assert hidden["min_support"] == 2
    assert hidden["witness"]["values"] == ["1", "0", "0", "-1"]


def test_dumps_is_sorted_and_newline_terminated():
    text = serialize.dumps({"b": 1, "a": [2]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
