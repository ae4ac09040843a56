from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cubespec import inverse_walsh, make_function, weight

DEFAULT_SEED = 20259


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for the randomized property tests",
    )


@pytest.fixture
def seed(request):
    return request.config.getoption("--seed")


@pytest.fixture
def rng(seed):
    return random.Random(seed)


@pytest.fixture
def no_scan(monkeypatch):
    """Make building the constraint rows fail, so a search that passes its gate fails the test."""
    from cubespec import search

    def rows(n, levels):
        raise AssertionError(f"the gate let a scan at n={n} start")

    monkeypatch.setattr(search, "_rows", rows)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The argument tuples of every search._kernel_basis call made after the fixture starts."""
    from cubespec import search

    calls = []
    kernel_basis = search._kernel_basis
    monkeypatch.setattr(search, "_kernel_basis", lambda *args: calls.append(args) or kernel_basis(*args))
    return calls


def random_function(rng, n, lo=-5, hi=5):
    """Random integer-valued function, guaranteed nonzero."""
    vals = [rng.randrange(lo, hi + 1) for _ in range(1 << n)]
    if not any(vals):
        vals[rng.randrange(len(vals))] = 1
    return make_function(n, vals)


# coprime denominators, powers of 2 and a Mersenne prime: the lcm of a table
# is far above its largest denominator
DENOMINATORS = (1, 2, 3, 4, 5, 7, 8, 11, 13, 16)
LARGE_PRIME = (1 << 61) - 1


def random_rational_function(rng, n):
    """Random signed rational table over mixed denominators, one entry over LARGE_PRIME."""
    vals = [Fraction(rng.randrange(-20, 21), rng.choice(DENOMINATORS)) for _ in range(1 << n)]
    vals[rng.randrange(len(vals))] = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 50), LARGE_PRIME)
    return make_function(n, vals)


# equal values in several spellings: ints, Fractions and strings, reduced or not
SPELLINGS = (
    (0, "0/3", "-0", Fraction(0, 5)),
    (1, "2/2", Fraction(3, 3)),
    (-1, "-4/4", Fraction(-2, 2)),
    ("1/2", "2/4", Fraction(2, 4)),
    ("-3/6", Fraction(-1, 2)),
    (3, "6/2", Fraction(9, 3)),
)


def mixed_table(rng, n, kind):
    """A raw value table for make_function, entries spelled in mixed forms.

    'repeated' draws each entry from the six values of SPELLINGS, so one
    value appears as, say, "2/4", Fraction(2, 4) and "1/2"; 'distinct' has
    2^n pairwise different signed values, 0 among them when n >= 1, half of
    them written as unreduced 'p/q' strings.
    """
    size = 1 << n
    if kind == "repeated":
        return [rng.choice(rng.choice(SPELLINGS)) for _ in range(size)]
    nums = rng.sample([x for x in range(-3 * size, 3 * size) if x], size)
    if n:
        nums[rng.randrange(size)] = 0
    return [Fraction(c, 5) if rng.randrange(2) else f"{2 * c}/10" for c in nums]


def random_band_function(rng, n, i, j, max_terms=5):
    """Random rational combination of characters with weights in [i, j].

    Built straight from a coefficient table, so band membership is exact by
    construction and the spectrum is exactly the set of chosen weights.
    """
    masks = [u for u in range(1 << n) if i <= weight(u) <= j]
    chosen = rng.sample(masks, rng.randrange(1, min(len(masks), max_terms) + 1))
    table = [Fraction(0)] * (1 << n)
    for u in chosen:
        table[u] = Fraction(rng.choice([x for x in range(-6, 7) if x]), rng.randrange(1, 5))
    return inverse_walsh(make_function(n, table))
