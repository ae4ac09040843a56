import math
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from cubespec import (
    Blueprint,
    LOWER,
    VertexFunction,
    build,
    character,
    constant_function,
    in_band,
    inner_product,
    inverse_walsh,
    level_project,
    make_function,
    parity_twist,
    phi,
    point_mass,
    psi,
    restrict,
    spectrum,
    support,
    support_size,
    tensor,
    walsh_transform,
    zero_function,
)
from cubespec import functions
from cubespec.functions import _PACK_MIN, _butterfly, _fractions, _packed, _scaled_ints, _transposed
from conftest import (
    LARGE_PRIME,
    SPELLINGS,
    mixed_table,
    random_band_function,
    random_function,
    random_rational_function,
)
from oracles import (
    naive_int_walsh,
    naive_inverse_walsh,
    naive_is_zero,
    naive_support,
    naive_tensor,
    naive_walsh,
)


class TestMakeFunction:
    def test_accepts_mixed_exact_inputs(self):
        f = make_function(1, [1, "-1"])
        assert f.values == (Fraction(1), Fraction(-1))
        assert f.values == phi(1).values

    def test_degenerate_dimension(self):
        f = make_function(0, [5])
        assert f.n == 0 and f.values == (Fraction(5),)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            make_function(2, [1, 0, 0])

    def test_dimension_out_of_range(self):
        with pytest.raises(ValueError):
            make_function(25, [])
        with pytest.raises(ValueError):
            make_function(-1, [])

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            make_function(1, [0.5, 1])

    @pytest.mark.parametrize("bad", [0.5, True, None], ids=repr)
    def test_names_the_rejected_type(self, bad):
        message = f"{type(bad).__name__} is not an exact rational; pass int, Fraction or 'p/q'"
        for table in ([bad, 1], [1, bad]):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make_function(1, table)

    @pytest.mark.parametrize("bad", [
        "1.5", "1e3", " 1", "1/0", "1/-2", "+1", "", True, False, 1.0, Decimal("0.1"), 1j, None, [1],
    ], ids=repr)
    def test_rejects_everything_but_int_fraction_and_strict_strings(self, bad):
        with pytest.raises(ValueError):
            make_function(1, [bad, 1])
        with pytest.raises(ValueError):
            make_function(1, [1, bad])
        with pytest.raises(ValueError):
            constant_function(1, bad)
        with pytest.raises(ValueError):
            phi(1).scale(bad)

    @pytest.mark.parametrize("good,value", [
        (3, Fraction(3)), (-2, Fraction(-2)), (Fraction(-3, 4), Fraction(-3, 4)), ("7", Fraction(7)),
        ("-0", Fraction(0)), ("007", Fraction(7)), ("-12/8", Fraction(-3, 2)), ("0/5", Fraction(0)),
    ], ids=repr)
    def test_accepted_forms(self, good, value):
        f = make_function(1, [good, 1])
        assert f.values == (value, Fraction(1)) and all(type(v) is Fraction for v in f.values)
        assert constant_function(0, good).values == (value,)
        assert phi(1).scale(good).values == (value, -value)


class TestVertexFunctionValues:
    @pytest.mark.parametrize("n", [True, 2.0, "2", None], ids=repr)
    def test_rejects_non_int_dimension(self, n):
        with pytest.raises(ValueError, match=re.escape(f"dimension must be an int in [0, 24], got {n!r}")):
            VertexFunction(n, (1, 2, 3, 4))

    @pytest.mark.parametrize("bad", [True, 0.5, "1", None], ids=["bool", "float", "str", "None"])
    def test_rejects_non_rational_values(self, bad):
        with pytest.raises(ValueError, match=f"index 2 is {type(bad).__name__}"):
            VertexFunction(2, (Fraction(1), 0, bad, bad))

    def test_names_the_index_and_type(self):
        message = "value at index 0 is float, expected int or Fraction"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            VertexFunction(1, (0.5, 1))

    def test_ints_become_fractions(self):
        f = VertexFunction(2, (1, Fraction(1, 2), 0, -3))
        assert f.values == (Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-3))
        assert all(type(v) is Fraction for v in f.values)

    def test_values_are_a_tuple_whatever_the_sequence(self):
        table = [Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(3)]
        f, g = VertexFunction(2, table), VertexFunction(2, tuple(table))
        assert type(f.values) is tuple and f == g and hash(f) == hash(g)
        assert (f + g).values == tuple(2 * v for v in table)
        table.append(Fraction(5))  # the caller's list is not the function's table
        assert f.values == g.values and spectrum(f) == spectrum(g)
        assert type(VertexFunction(1, [1, 0]).values) is tuple

    def test_a_tuple_is_kept_without_a_copy(self):
        table = (Fraction(1), Fraction(2))
        assert VertexFunction(1, table).values is table

    @pytest.mark.parametrize("make,message", [
        (lambda: VertexFunction(25, [0.5]), "dimension must be an int in [0, 24], got 25"),
        (lambda: VertexFunction(1, [0.5, 1, 2]), "value table has length 3, expected 2 for n=1"),
        (lambda: functions._from_ints(25, [0], 1), "dimension must be an int in [0, 24], got 25"),
    ], ids=["dimension before entry types", "length before entry types", "dimension before length"])
    def test_checks_run_in_order(self, make, message):
        # the dimension, then the length, then the entry types, for both storing paths
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_match_binds_n_and_the_fraction_view(self):
        table = (Fraction(1), Fraction(-1, 2))
        cases = [(VertexFunction(1, (2, -1)), (Fraction(2), Fraction(-1))), (VertexFunction(1, table), table)]
        for f, expected in cases:
            match f:
                case VertexFunction(n, values):
                    pass
            assert n == 1 and values == expected and values is f.values
            assert all(type(v) is Fraction for v in values)
        assert values is table  # the kept Fraction tuple itself


class TestWalsh:
    def test_character_transforms_to_single_spike(self):
        for n in (1, 2, 3):
            for u in range(1 << n):
                fhat = walsh_transform(character(n, u))
                expected = [0] * (1 << n)
                expected[u] = 1 << n
                assert list(fhat.values) == expected

    def test_sign_pair_coefficients(self):
        # coefficient at u is 1 - (-1)^weight(u): 2 on odd weights, 0 on even
        fhat = walsh_transform(phi(3))
        assert list(fhat.values) == [0, 2, 2, 0, 2, 0, 0, 2]

    def test_involution_scales_by_cube_size(self, rng):
        vals = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(16)]
        f = make_function(4, vals)
        twice = walsh_transform(walsh_transform(f))
        assert twice.values == tuple(16 * v for v in f.values)

    def test_matches_double_sum_oracle(self, rng):
        for n in (1, 2, 3, 4):
            f = random_function(rng, n)
            assert walsh_transform(f).values == naive_walsh(f).values

    def test_inverse_of_zero_and_constant_tables(self):
        assert inverse_walsh(zero_function(3)).values == zero_function(3).values
        spike = make_function(2, [4, 0, 0, 0])
        assert inverse_walsh(spike).values == (Fraction(1),) * 4

    def test_inverse_round_trip(self, rng):
        f = phi(2)
        assert inverse_walsh(walsh_transform(f)).values == f.values
        g = random_function(rng, 5)
        assert inverse_walsh(walsh_transform(g)).values == g.values
        assert naive_inverse_walsh(walsh_transform(g)).values == g.values

    def test_parseval(self, rng):
        f = random_function(rng, 4)
        fhat = walsh_transform(f)
        lhs = sum(v * v for v in f.values)
        rhs = Fraction(sum(c * c for c in fhat.values), 16)
        assert lhs == rhs


class TestIntegerPath:
    """The scaled-integer transforms against the double-sum oracles."""

    @pytest.mark.parametrize("n", range(10))
    def test_transforms_match_oracles(self, rng, n):
        # from n = 8 on the double sums are slow: one table that packs and one
        # whose LARGE_PRIME lcm is too wide for a lane
        tables = [random_rational_function(rng, n) for _ in range(3 if n < 8 else 1)]
        tables += [random_function(rng, n, -50, 50)] + ([zero_function(n)] if n < 8 else [])
        for f in tables:
            fhat, back = walsh_transform(f), inverse_walsh(f)
            assert fhat.values == naive_walsh(f).values
            assert back.values == naive_inverse_walsh(f).values
            assert all(type(v) is Fraction for v in fhat.values + back.values)

    def test_scaled_ints_match_fraction_arithmetic(self, rng):
        # signed entries, LARGE_PRIME denominators, and one-entry tables
        tables = [random_rational_function(rng, n).values for n in range(6)]
        tables += [(Fraction(-3, LARGE_PRIME),), (Fraction(0),), (Fraction(-5),),
                   (Fraction(1, LARGE_PRIME), Fraction(-7, 4 * LARGE_PRIME), Fraction(-2, 3), Fraction(0))]
        for values in tables:
            c, d = _scaled_ints(values)
            assert d == math.lcm(*(v.denominator for v in values))
            assert all(type(x) is int for x in c)
            assert [x / Fraction(d) for x in c] == list(values)

    @pytest.mark.parametrize("n", range(8))
    def test_inner_product_matches_plain_sum(self, rng, n):
        f, g = random_rational_function(rng, n), random_rational_function(rng, n)
        expected = sum((a * b for a, b in zip(f.values, g.values)), Fraction(0)) / (1 << n)
        got = inner_product(f, g)
        assert got == expected and type(got) is Fraction


class TestButterfly:
    """_butterfly, on packed 64-bit rows and on entries, against the recursive-split oracle."""

    @staticmethod
    def _check(vals):
        expected = naive_int_walsh(vals)
        table = list(vals)
        assert _butterfly(table) is table
        assert table == expected

    @pytest.mark.parametrize("n", range(15))
    def test_matches_the_split_oracle(self, rng, n):
        # both sides of the packing threshold, narrow and wide entries
        size = 1 << n
        for bits in (10, 40, 100):
            self._check([rng.randrange(-(1 << bits), 1 << bits) for _ in range(size)])
        self._check([0] * size)
        for spike in (0, size - 1):
            table = [0] * size
            table[spike] = -7
            self._check(table)

    @pytest.mark.parametrize("n", [8, 11, 14])
    def test_lane_edge(self, rng, monkeypatch, n):
        # entries that fit a signed (64 - n)-bit word pack, down to -2^(63-n);
        # one more bit runs the stages on the entries.  The stage calls tell
        # which path ran.
        lengths = []
        stages = functions._stages
        monkeypatch.setattr(functions, "_stages",
                            lambda vals, *stage: lengths.append(len(vals)) or stages(vals, *stage))
        size = 1 << n
        last = [-1 if bin(x).count("1") % 2 else 1 for x in range(size)]  # the character chi_(2^n - 1)
        m = 63 - n
        cases = [(-((1 << m) - 1), True), (1 << (m - 1), True), (-(1 << m), True),
                 (-((1 << (m + 1)) - 1), False), (1 << m, False)]
        for edge, packed in cases:
            tables = [[edge] * size, [edge] + [0] * (size - 1), [0] * (size - 1) + [edge]]
            if edge != -(1 << m):  # +2^(63-n) does not fit; others reach 2^n |edge| at the last coefficient
                tables.append([edge * s for s in last])
            low = -(1 << m) if packed else -(1 << (m + 1))
            mixed = [rng.randrange(low, -low) for _ in range(size)]
            mixed[rng.randrange(size)] = edge
            tables.append(mixed)
            for table in tables:
                lengths.clear()
                self._check(table)
                assert (lengths == [size]) is not packed, (edge, lengths)
        lengths.clear()
        self._check([0] * size)
        assert size not in lengths

    def test_walsh_twice_is_2_to_the_n_at_n14(self, rng):
        # one table too wide for a lane and one that packs
        n = 14
        wide = [Fraction(rng.randrange(-(1 << 80), 1 << 80), rng.choice((3, LARGE_PRIME))) for _ in range(1 << n)]
        narrow = [Fraction(rng.randrange(-20, 21), rng.choice((3, 5, 7))) for _ in range(1 << n)]
        for values in (wide, narrow):
            f = make_function(n, values)
            assert walsh_transform(walsh_transform(f)).values == tuple((1 << n) * v for v in values)


class TestPacked:
    """_packed, the one packing rule, and _transposed on its rows."""

    @staticmethod
    def _rows(vals, width):
        # row r holds the run of width entries from r * width, entry l in lane l
        return [sum(v << 64 * l for l, v in enumerate(vals[s:s + width])) for s in range(0, len(vals), width)]

    def test_short_tables_do_not_pack(self):
        assert _packed([0] * (_PACK_MIN >> 1), 8) is None
        assert _packed([0] * _PACK_MIN, 8) is not None

    def test_margin_above_63_does_not_pack(self):
        assert _packed([0] * _PACK_MIN, 64) is None
        assert _packed([-1, 0] * (_PACK_MIN >> 1), 63) is not None
        assert _packed([1, 0] * (_PACK_MIN >> 1), 63) is None

    @pytest.mark.parametrize("entry", [1 << 63, -(1 << 63) - 1, 1 << 100])
    def test_entries_wider_than_a_lane_do_not_pack(self, entry):
        assert _packed([entry] + [0] * (_PACK_MIN - 1), 0) is None

    @pytest.mark.parametrize("n", [8, 9, 11, 14])
    @pytest.mark.parametrize("margin", [0, 1, 14, 40, 63])
    def test_rows_at_the_edge_and_one_bit_past(self, rng, n, margin):
        size, width = 1 << n, 1 << n // 2
        top = 1 << (63 - margin)
        for vals in ([-top] * size, [top - 1] * size, [rng.randrange(-top, top) for _ in range(size)]):
            vals[0], vals[-1] = -top, top - 1
            rows = _packed(vals, margin)
            assert rows == self._rows(vals, width) and len(rows) == size // width
            lanes = [vals[r + l * width] for r in range(width) for l in range(size // width)]
            assert _transposed(rows, width) == self._rows(lanes, size // width)
            for past in (top, -top - 1):
                for x in (0, size - 1, rng.randrange(size)):
                    wider = list(vals)
                    wider[x] = past
                    assert _packed(wider, margin) is None, (past, x)


@pytest.mark.parametrize("offset", [0, 1])
def test_interning_stays_linear_on_ints_that_share_a_hash(rng, offset):
    # CPython hashes an int as its value mod 2^61 - 1, so offset + k * (2^61 - 1)
    # all hash alike; a hash set of 2^14 of them takes seconds
    modulus = sys.hash_info.modulus
    ints = [offset + modulus * rng.randrange(-(1 << 12), 1 << 12) for _ in range(1 << 14)]
    assert len({hash(c) for c in ints}) <= 2  # the residue and, for k < 0, its negative
    start = time.perf_counter()
    got = _fractions(ints, 3)
    assert time.perf_counter() - start < 1.0
    assert list(got) == [Fraction(c, 3) for c in ints]
    # equal values share one Fraction, and only equal values do
    order = sorted(range(len(ints)), key=ints.__getitem__)
    assert any(ints[a] == ints[b] for a, b in zip(order, order[1:]))
    for a, b in zip(order, order[1:]):
        assert (got[a] is got[b]) == (ints[a] == ints[b])


class TestTensor:
    def test_two_sign_pairs_give_a_character(self):
        assert tensor(phi(1), phi(1)).values == character(2, 0b11).values

    def test_identity_element(self, rng):
        f = random_function(rng, 3)
        unit = point_mass(0)
        assert tensor(f, unit).values == f.values
        assert tensor(unit, f).values == f.values

    def test_support_multiplies(self, rng):
        assert support_size(tensor(phi(2), phi(2))) == 4
        f = random_function(rng, 3)
        g = random_function(rng, 2)
        assert support_size(tensor(f, g)) == support_size(f) * support_size(g)

    def test_transform_compatibility(self, rng):
        f = random_function(rng, 2)
        g = random_function(rng, 3)
        lhs = walsh_transform(tensor(f, g))
        fh, gh = walsh_transform(f), walsh_transform(g)
        for v in range(8):
            for u in range(4):
                assert lhs.values[(v << 2) | u] == fh.values[u] * gh.values[v]

    def test_dimension_overflow(self):
        with pytest.raises(ValueError, match=r"^tensor dimension 25 exceeds the cap 24$"):
            tensor(point_mass(13), point_mass(12))

    def test_summed_dimension_is_checked_before_any_product(self, monkeypatch):
        factors = (point_mass(8), point_mass(8), point_mass(9))
        calls = []
        monkeypatch.setattr(functions, "_int_table", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"^tensor dimension 25 exceeds the cap 24$"):
            tensor(*factors)
        assert calls == []

    @pytest.mark.parametrize("count", [0, 1, 3, 4])
    def test_any_number_of_factors_matches_folded_pointwise_products(self, rng, count):
        for _ in range(4):
            factors = [random_rational_function(rng, rng.randrange(4)) for _ in range(count)]
            expected = [1]
            for f in factors:
                expected = naive_tensor(expected, f.values)
            got = tensor(*factors)
            assert got.n == sum(f.n for f in factors)
            assert list(got.values) == expected and all(type(v) is Fraction for v in got.values)


class TestRestrict:
    def test_sign_pair_slices(self):
        assert restrict(phi(2), 1, 0).values == point_mass(1).values
        assert list(restrict(phi(2), 1, 1).values) == [0, -1]

    def test_slice_difference_drops_band(self, rng):
        f = random_band_function(rng, 4, 2, 3)
        diff = restrict(f, 2, 0) - restrict(f, 2, 1)
        assert in_band(diff, 1, 2)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            restrict(phi(2), 3, 0)
        with pytest.raises(ValueError):
            restrict(phi(2), 1, 2)
        with pytest.raises(ValueError):
            restrict(point_mass(0), 1, 0)

    @pytest.mark.parametrize("r,k", [(1, True), (1, 1.0), (True, 0), (1.0, 0)], ids=repr)
    def test_rejects_non_int_coordinate_or_bit(self, r, k):
        with pytest.raises(ValueError, match="^(coordinate|bit)"):
            restrict(phi(2), r, k)

    def test_half_sum_half_difference_rebuild_slices(self, rng):
        # g = (f0 + f1)/2 and h = (f0 - f1)/2 recombine exactly
        f = random_function(rng, 4)
        for r in (1, 3):
            f0, f1 = restrict(f, r, 0), restrict(f, r, 1)
            g = (f0 + f1).scale(Fraction(1, 2))
            h = (f0 - f1).scale(Fraction(1, 2))
            assert (g + h).values == f0.values
            assert (g - h).values == f1.values


class TestParityTwist:
    def test_maps_flat_pair_to_sign_pair(self):
        assert parity_twist(psi(3)).values == phi(3).values

    def test_involution_preserving_support(self, rng):
        f = random_function(rng, 5)
        assert parity_twist(parity_twist(f)).values == f.values
        assert support(parity_twist(f)) == support(f)


class TestInnerProduct:
    def test_characters_orthonormal(self):
        for u in range(8):
            for v in range(8):
                expected = Fraction(1 if u == v else 0)
                assert inner_product(character(3, u), character(3, v)) == expected

    def test_sign_pair_norm(self):
        assert inner_product(phi(3), phi(3)) == Fraction(1, 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(phi(2), phi(3))


class TestSupport:
    def test_block_supports(self):
        for k in (1, 2, 4):
            assert support(phi(k)) == {0, (1 << k) - 1}
            assert support_size(phi(k)) == 2
        assert support(zero_function(3)) == frozenset()
        assert support_size(zero_function(3)) == 0

    def test_tensor_support_codes(self):
        f = tensor(phi(2), point_mass(1))
        assert support(f) == {0, 3}


class TestValueTables:
    """Int and truthiness paths against the Fraction arithmetic of tests/oracles.py."""

    @pytest.mark.parametrize("kind", ["repeated", "distinct"])
    def test_tensor_matches_pointwise_products(self, rng, kind):
        for m, n in [(0, 0), (0, 3), (1, 2), (2, 1), (3, 3), (4, 2)]:
            a = mixed_table(rng, m, kind)
            b = mixed_table(rng, n, rng.choice(["repeated", "distinct"]))
            got = tensor(make_function(m, a), make_function(n, b)).values
            assert list(got) == naive_tensor(a, b) and all(type(v) is Fraction for v in got)

    @pytest.mark.parametrize("kind", ["repeated", "distinct", "zero"])
    def test_zero_tests_match_fraction_comparisons(self, rng, kind):
        for n in [*range(6)] * 2:
            if kind == "zero":
                vals = [rng.choice(SPELLINGS[0]) for _ in range(1 << n)]
            else:
                vals = mixed_table(rng, n, kind)
            f = make_function(n, vals)
            assert support(f) == naive_support(vals)
            assert support_size(f) == len(naive_support(vals))
            assert f.is_zero() is naive_is_zero(vals)

    @pytest.mark.parametrize("n", range(6))
    def test_entrywise_arithmetic_matches_fractions(self, rng, n):
        f, g = random_rational_function(rng, n), random_rational_function(rng, n)
        c = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 30), rng.choice((1, 3, 16, LARGE_PRIME)))
        signs = [(-1) ** bin(x).count("1") for x in range(1 << n)]
        cases = [
            (f + g, [a + b for a, b in zip(f.values, g.values)]),
            (f - g, [a - b for a, b in zip(f.values, g.values)]),
            (f - f, [Fraction(0)] * (1 << n)),
            (f.scale(c), [c * a for a in f.values]),
            (f.scale(0), [Fraction(0)] * (1 << n)),
            (parity_twist(f), [s * a for s, a in zip(signs, f.values)]),
        ]
        for got, expected in cases:
            assert list(got.values) == expected
            assert all(type(v) is Fraction for v in got.values)
            assert len({id(v) for v in got.values}) == len(set(got.values))

    def test_equal_values_share_one_fraction(self, rng):
        f = make_function(4, mixed_table(rng, 4, "repeated"))
        for g in (tensor(f, f), walsh_transform(f), inverse_walsh(f), level_project(f, 2),
                  VertexFunction(3, (1, 0, 0, -1, 0, 1, 1, 0))):
            assert len({id(v) for v in g.values}) == len(set(g.values))
        assert len({id(v) for v in build(Blueprint(LOWER, (1,), (2,), 1, 4)).values}) == 3
