"""The stored int table against the Fraction arithmetic of tests/oracles.py.

A VertexFunction holds ints over one positive denominator in lowest terms,
every producer builds its result from ints and every consumer reads them;
values is built from them on first read.  These tests check each
producer's values against the Fraction oracles, that every result equals
and hashes like the same table built from Fractions, and that one table
built from ints, Fractions, strings or a mixture is one function, on
LARGE_PRIME denominators, entries of 64 bits or more and the zero function.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from cubespec import (
    VertexFunction,
    anf_degree,
    canonical_form,
    character,
    check_eigen_relation,
    constant_function,
    in_band,
    inner_product,
    inverse_walsh,
    level_project,
    make_function,
    min_support,
    parity_twist,
    phi,
    restrict,
    sign_split,
    spectrum,
    support,
    support_size,
    tensor,
    walsh_transform,
    zero_function,
)
from cubespec import functions, serialize
from conftest import LARGE_PRIME, random_rational_function
from oracles import (
    naive_canonical_form,
    naive_character,
    naive_inverse_walsh,
    naive_level_projection,
    naive_parity_twist,
    naive_restrict,
    naive_tensor,
    naive_walsh,
    weight,
)

WIDE = 1 << 64


def wide_function(rng, n):
    """Entries of 64 to 70 bits over 1, 3 or LARGE_PRIME, so the scaled table is wider still."""
    return make_function(n, [Fraction(rng.choice([-1, 1]) * rng.randrange(WIDE, 64 * WIDE),
                                      rng.choice((1, 3, LARGE_PRIME))) for _ in range(1 << n)])


def tables(rng, n):
    return [random_rational_function(rng, n), wide_function(rng, n), zero_function(n),
            make_function(n, [rng.randrange(-3, 4) for _ in range(1 << n)])]


def check_stored(g, expected):
    """g holds the Fraction table expected, and is the function that table builds."""
    assert list(g.values) == list(expected)
    assert all(type(v) is Fraction for v in g.values)
    rebuilt = make_function(g.n, list(expected))
    assert g == rebuilt and hash(g) == hash(rebuilt)


@pytest.mark.parametrize("n", range(5))
def test_every_producer_matches_fraction_arithmetic(rng, n):
    for f in tables(rng, n):
        for g in tables(rng, n):
            c = Fraction(rng.choice([-1, 1]) * rng.randrange(1, WIDE), rng.choice((1, 6, LARGE_PRIME)))
            check_stored(f + g, [a + b for a, b in zip(f.values, g.values)])
            check_stored(f - g, [a - b for a, b in zip(f.values, g.values)])
            check_stored(f.scale(c), [c * a for a in f.values])
            check_stored(tensor(f, g), naive_tensor(f.values, g.values))
        check_stored(walsh_transform(f), naive_walsh(f).values)
        check_stored(inverse_walsh(f), naive_inverse_walsh(f).values)
        check_stored(parity_twist(f), naive_parity_twist(f.values))
        for i in range(n + 1):
            check_stored(level_project(f, i), naive_level_projection(f, i))
        for r in range(1, n + 1):
            for k in (0, 1):
                check_stored(restrict(f, r, k), naive_restrict(f.values, r, k))
        text = serialize.function_to_dict(f)
        assert text["values"] == [str(v) for v in f.values]
        check_stored(serialize.function_from_dict(text), f.values)
        if not f.is_zero() and n <= 3:
            check_stored(canonical_form(f), naive_canonical_form(f).values)
    for u in range(1 << n):
        check_stored(character(n, u), naive_character(n, u))


@pytest.mark.parametrize("n", range(1, 4))
def test_witnesses_are_stored_in_lowest_terms(n):
    for i in range(n + 1):
        for j in range(i, n + 1):
            w = min_support(n, i, j).witness
            check_stored(w, w.values)
            coeffs = naive_walsh(w).values
            assert all(c == 0 for u, c in enumerate(coeffs) if not i <= weight(u) <= j)


def test_one_table_built_every_way_is_one_function(rng):
    # ints, Fractions, strings, a mixed tuple, JSON and the int producer path
    nums = [0, 1, -1, WIDE + 5, -3 * WIDE, LARGE_PRIME, 7 * LARGE_PRIME, -2]
    for d in (1, 6, LARGE_PRIME, 2 * LARGE_PRIME):
        values = [Fraction(c, d) for c in nums]
        strings = [f"{3 * c}/{3 * d}" if k % 2 else str(v) for k, (c, v) in enumerate(zip(nums, values))]
        mixed = [(v.numerator if v.denominator == 1 else v) if k % 3 else strings[k]
                 for k, v in enumerate(values)]
        built = [
            VertexFunction(3, tuple(values)),
            VertexFunction(3, list(values)),
            make_function(3, strings),
            make_function(3, mixed),
            serialize.function_from_dict({"n": 3, "values": strings}),
            functions._from_ints(3, [5 * c for c in nums], 5 * d),
            functions._from_ints(3, [-c for c in nums], -d),
        ]
        if d == 1:
            built.append(VertexFunction(3, tuple(nums)))
        for f in built:
            assert f == built[0] and hash(f) == hash(built[0])
            assert f.values == tuple(values)
        assert len(set(built)) == 1
    zeros = [zero_function(3), constant_function(3, "0/7"), VertexFunction(3, (0,) * 8),
             make_function(3, ["-0", Fraction(0, 9)] * 4), phi(3) - phi(3), phi(3).scale(0),
             functions._from_ints(3, [0] * 8, LARGE_PRIME)]
    assert len(set(zeros)) == 1 and all(z == zeros[0] for z in zeros)
    assert zero_function(3) != zero_function(2) and phi(1) != phi(1).scale(2)


@pytest.mark.parametrize("step", [1, LARGE_PRIME], ids=["narrow", "one hash residue"])
def test_a_divided_table_holds_one_int_per_value(rng, step):
    # entries k * step all share one hash residue when step is 2^61 - 1
    nums = [3 * step * rng.randrange(-40, 40) for _ in range(1 << 10)]
    f = functions._from_ints(10, nums, 6)
    ints, d = functions._int_table(f)
    assert d == 2 and list(ints) == [c // 3 for c in nums]
    assert len({id(c) for c in ints}) == len(set(ints))


def test_consumers_build_no_fractions(rng, monkeypatch):
    # producer results, whose values are built only when read
    band = level_project(inverse_walsh(random_rational_function(rng, 4)), 2)
    fs = [walsh_transform(wide_function(rng, 4)), inverse_walsh(random_rational_function(rng, 4))]
    indicator = tensor(phi(2), phi(2))

    def no_fractions(*args):
        raise AssertionError("a consumer built the Fraction table")

    monkeypatch.setattr(functions, "_fractions", no_fractions)
    for f in fs + [band]:
        spectrum(f), in_band(f, 0, 4), level_project(f, 1), check_eigen_relation(f, 0)
        support(f), support_size(f), f.is_zero(), inner_product(f, f), serialize.function_to_dict(f)
    assert check_eigen_relation(band, 0)
    assert sign_split(indicator).t0 == {0, 15}
    assert anf_degree(make_function(4, [int(c != 0) for c in functions._int_table(indicator)[0]])) == 2
    with pytest.raises(AssertionError):
        band.values


def test_immutable_with_the_dataclass_repr():
    f = VertexFunction(1, (1, Fraction(-1, 2)))
    assert repr(f) == "VertexFunction(n=1, values=(Fraction(1, 1), Fraction(-1, 2)))"
    for name in ("n", "values", "other"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(f, name, None)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(f, name)
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert g == f and g.values == f.values
