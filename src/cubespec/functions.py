"""Exact rational functions on the vertices of the hypercube H(n).

Vertices of H(n) are the elements of Z_2^n, encoded as integer bitmasks in
[0, 2^n) with coordinate 1 in the least significant bit.  A VertexFunction
stores its table as integers over one positive common denominator, in
lowest terms (_int_table), so every transform and every zero test in this
package is exact.  It is a frozen dataclass over (n, ints, d), which
makes its equality, hashing and immutability.  Producers build their
results straight from ints (_from_ints), and consumers read the stored
ints (_int_table): no table is scaled per call.  The public values tuple
holds one Fraction per distinct value, shared by every vertex that holds
it; it is a cached property, built on first read (_fractions), that no
comparison reads, and a Fraction tuple handed to the constructor seeds it
as given.  Zero and sign tests read the ints, never Fraction comparisons.

The Walsh-Hadamard transform is stored unnormalized:

    walsh_transform(f)[u] = sum_x f(x) * (-1)^(u.x)

which keeps integer-valued functions integer-valued.  The 1/2^n factor
appears only in inner_product and inverse_walsh.  _stages runs one stage
per coordinate and takes the stage's arithmetic: the Walsh add and
subtract for the int transform (_butterfly), the Z_2 Moebius step for
trades.anf_degree.  A transformed table of narrow entries runs the stages
on rows of 64-bit lanes, one Python int per row, so each stage adds whole
rows; _packed is the one rule that decides when a table packs, for the
transform and for spectral.check_eigen_relation alike.  Other tables run
the stages on their entries.

Tensor products place the first factor in the low bits: the value of
tensor(f1, f2) at code y*2^m + x is f1(x)*f2(y) for f1 on H(m).  One call
takes any number of factors and builds one table.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, groupby, repeat
from operator import add, methodcaller, mul, sub

MAX_DIMENSION = 24
_INT_RE = re.compile(r"-?\d+", re.ASCII)
_RATIONAL_RE = re.compile(rf"({_INT_RE.pattern})(?:/([1-9]\d*))?", re.ASCII)
# _packed packs tables of at least this many entries into 64-bit lanes;
# below it, packing costs more than the stages it saves
_PACK_MIN = 1 << 8
_LANE_TOP = bytes(7) + b"\x80"  # one little-endian 64-bit lane with its top bit set
_as_ratio = methodcaller("as_integer_ratio")  # of an int and of a Fraction
_HASH_MODULUS = sys.hash_info.modulus  # an int hashes to its value mod this, 2^61 - 1 on 64-bit builds


def _check_int(what: str, value, lo: int | None = 0, hi: int | None = None) -> None:
    """The one int rule: value must be an int (not a bool) in [lo, hi]; a None bound is open."""
    if type(value) is not int or (lo is not None and value < lo) or (hi is not None and value > hi):
        if hi is None:
            bound = "" if lo is None else f" >= {lo}"
        else:
            bound = f" <= {hi}" if lo is None else f" in [{lo}, {hi}]"
        raise ValueError(f"{what} must be an int{bound}, got {value!r}")


def weight(code: int) -> int:
    """Hamming weight (popcount) of a vertex code."""
    return code.bit_count()


def fraction_from_str(text: str) -> Fraction:
    """Parse a strict 'p' or 'p/q' string: an optional minus, digits, a positive denominator."""
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a 'p' or 'p/q' rational string: {text!r}")
    return Fraction(int(match[1]), int(match[2] or 1))


def as_fraction(value) -> Fraction:
    """Convert an int, a Fraction or a 'p' / 'p/q' string; reject bool, float and all else."""
    if isinstance(value, str):
        return fraction_from_str(value)
    if type(value) is not int and not isinstance(value, Fraction):
        raise ValueError(f"{type(value).__name__} is not an exact rational; pass int, Fraction or 'p/q'")
    return Fraction(value)


@dataclass(frozen=True, init=False, repr=False)
class VertexFunction:
    """A function H(n) -> Q given by its dense value table in vertex-code order.

    Built from a sequence of ints and Fractions (floats and other types
    rejected).  The function holds its table as ints c over one positive
    denominator d, value k being c[k] / d, in lowest terms: d is the least
    such denominator, so two functions are equal exactly when their n, c
    and d are.  The frozen dataclass over (n, c, d) makes equality, hashing
    and immutability, so a function may be shared freely across threads,
    and all operations below return new objects.  values, the table as a
    tuple of Fractions with one object per distinct value, is a cached
    property that no comparison reads: a Fraction tuple given to the
    constructor seeds it as is, without a copy, and any other table builds
    it from the ints on first read.
    """

    n: int
    _ints: tuple[int, ...]
    _den: int
    __match_args__ = ("n", "values")

    def __init__(self, n: int, values):
        values = _checked_table(n, values)
        types = {*map(type, values)}
        if not types <= {int, Fraction}:  # a Fraction subclass, or a bad entry to name
            for k, v in enumerate(values):
                if type(v) is not int and not isinstance(v, Fraction):
                    raise ValueError(f"value at index {k} is {type(v).__name__}, expected int or Fraction")
        ints, d = (values, 1) if types == {int} else _scaled_ints(values)
        vars(self).update(n=n, _ints=ints, _den=d)
        if types == {Fraction}:
            vars(self)["values"] = values  # seeds the cached property below

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The table as Fractions, built from the ints on first read."""
        return _fractions(self._ints, self._den)

    def __repr__(self):
        return f"{type(self).__qualname__}(n={self.n!r}, values={self.values!r})"

    def __add__(self, other: "VertexFunction") -> "VertexFunction":
        return self._entrywise(add, other)

    def __sub__(self, other: "VertexFunction") -> "VertexFunction":
        return self._entrywise(sub, other)

    def scale(self, c) -> "VertexFunction":
        c = as_fraction(c)
        ints, d = _int_table(self)
        return _from_ints(self.n, map(c.numerator.__mul__, ints), d * c.denominator)

    def _entrywise(self, op, other: "VertexFunction") -> "VertexFunction":
        # both tables brought to the lcm of their denominators
        self._check_same_cube(other)
        tables = _int_table(self), _int_table(other)
        d = math.lcm(*(q for _, q in tables))
        a, b = (ints if q == d else map((d // q).__mul__, ints) for ints, q in tables)
        return _from_ints(self.n, map(op, a, b), d)

    def is_zero(self) -> bool:
        return not any(_int_table(self)[0])

    def _check_same_cube(self, other: "VertexFunction") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} != {other.n}")


def _checked_table(n: int, table) -> tuple:
    """table as a tuple of 2^n entries, n an int in [0, MAX_DIMENSION]; a tuple is kept, not copied.

    The one check of the dimension and the length, for the constructor and
    _from_ints alike: the dimension first, then the length.
    """
    _check_int("dimension", n, 0, MAX_DIMENSION)
    table = tuple(table)
    if len(table) != 1 << n:
        raise ValueError(f"value table has length {len(table)}, expected {1 << n} for n={n}")
    return table


def _from_ints(n: int, ints, d: int = 1) -> VertexFunction:
    """The function on H(n) with table ints[k] / d, for an iterable of ints and a nonzero int d.

    The one producer path: n and the length go through the constructor's
    check (_checked_table), and the table is stored in lowest terms over a
    positive denominator, dividing out g = gcd(d, *ints) with the sign of
    d.  That division runs once per distinct entry (_per_value), so the
    divided table holds one int object per distinct value, as values
    holds one Fraction.
    """
    ints = _checked_table(n, ints)
    if d != 1:
        g = math.gcd(d, *ints) if d > 0 else -math.gcd(d, *ints)
        if g != 1:
            ints, d = _per_value(ints, g.__rfloordiv__), d // g
    f = object.__new__(VertexFunction)
    vars(f).update(n=n, _ints=ints, _den=d)
    return f


def _int_table(f: VertexFunction) -> tuple[tuple[int, ...], int]:
    """The one accessor of the stored table: ints c and the least d > 0 with f.values[k] == c[k] / d."""
    return f._ints, f._den


def make_function(n: int, values) -> VertexFunction:
    """Build a VertexFunction from any iterable of exact rationals.

    Accepts ints, Fractions and 'p' / 'p/q' strings; floats are rejected.
    Only the entries that are neither int nor Fraction go through
    as_fraction; VertexFunction scales the table to ints.
    """
    exact = (int, Fraction)
    return VertexFunction(n, tuple(v if type(v) in exact else as_fraction(v) for v in values))


def zero_function(n: int) -> VertexFunction:
    return constant_function(n, 0)


def constant_function(n: int, c) -> VertexFunction:
    _check_int("dimension", n, 0, MAX_DIMENSION)
    c = as_fraction(c)
    return _from_ints(n, (c.numerator,) * (1 << n), c.denominator)


def _scaled_ints(values) -> tuple[tuple[int, ...], int]:
    """Integers c and the lcm d of the denominators, with values[k] == c[k] / d.

    values holds ints and Fractions.  Each Fraction is in lowest terms, so
    c and d are too: for each prime of d, the entry p / q whose q holds its
    highest power has p and d // q prime to it, and so has p * (d // q).
    """
    ratios = list(map(_as_ratio, values))
    d = math.lcm(*{q for _, q in ratios})
    return tuple([p * (d // q) for p, q in ratios]), d


def _fractions(ints, d: int = 1) -> tuple[Fraction, ...]:
    """The table ints[k] / d as Fractions, one Fraction per distinct entry (_per_value).

    Entries are ints and d is a nonzero int, so a table of a few distinct
    values costs a few Fractions whatever its length.
    """
    return _per_value(ints, lambda c: Fraction(c, d))


def _per_value(ints, make) -> tuple:
    """The table make(c) for each entry c of ints, with one make call per distinct c.

    Equal entries share the one object made for them.  Entries below
    2^61 - 1 in magnitude hash to themselves, so a set interns them in
    linear time.  Wider ints hash to their value mod 2^61 - 1, and a table
    of them sharing one residue would fill one hash bucket, so such tables
    intern by sorting and each entry finds its object by bisection.
    """
    if -_HASH_MODULUS < min(ints) and max(ints) < _HASH_MODULUS:
        value = {c: make(c) for c in set(ints)}
        return tuple(map(value.__getitem__, ints))
    distinct = [c for c, _ in groupby(sorted(ints))]
    value = list(map(make, distinct))
    return tuple(map(value.__getitem__, map(bisect_left, repeat(distinct), ints)))


def _walsh_stage(lo: list, hi: list):
    return map(add, lo, hi), map(sub, lo, hi)


def _stages(vals: list, stage=_walsh_stage) -> list:
    # one stage per coordinate: stage(lo, hi) combines the halves across the
    # top bit into the even and odd entries, rotating that bit to bit 0
    half = len(vals) >> 1
    for _ in range(half.bit_length()):
        vals[0::2], vals[1::2] = stage(vals[:half], vals[half:])
    return vals


def _lane_tops(width: int) -> int:
    """The int with the top bit of each of width 64-bit lanes set."""
    return int.from_bytes(_LANE_TOP * width, "little")


def _rows(table: array, width: int) -> list[int]:
    """Each run of width entries of an array('q') as one int sum_l v_l * 2^(64 l).

    A run read unsigned holds v_l mod 2^64 in lane l; flipping every top
    bit adds 2^63 to each lane, and subtracting the top bits leaves v_l.
    """
    tops = _lane_tops(width)
    view = memoryview(table)
    return [(int.from_bytes(view[s:s + width], sys.byteorder) ^ tops) - tops
            for s in range(0, len(view), width)]


def _columns(rows: list[int], width: int) -> array:
    """The lanes of the rows as an array('q'), transposed: lane l of row r at l * len(rows) + r."""
    tops = _lane_tops(width)
    height = len(rows)
    flat = array("q", b"".join([((r + tops) ^ tops).to_bytes(8 * width, sys.byteorder) for r in rows]))
    table = array("q", bytes(8 * len(flat)))
    for r in range(height):
        table[r::height] = flat[r * width:(r + 1) * width]
    return table


def _transposed(rows: list[int], width: int) -> list[int]:
    """Rows of width lanes, transposed: lane l of row r becomes lane r of row l."""
    return _rows(_columns(rows, width), len(rows))


def _packed(vals: list[int], margin: int) -> list[int] | None:
    """The one packing rule: a table of 2^n ints as 2^b rows of 2^a 64-bit lanes, or None.

    Row r holds entries r * 2^a .. (r + 1) * 2^a - 1, one per lane, with
    a = n // 2 and b = n - a, so the rows index the b high coordinates.
    A table packs when it has at least _PACK_MIN entries, margin <= 63
    and every entry fits a signed (64 - margin)-bit word,
    -2^(63-margin) <= v < 2^(63-margin); a caller that adds fewer than
    2^margin such entries into a lane cannot leave it.
    """
    if len(vals) < _PACK_MIN or margin > 63:
        return None
    try:
        table = array("q", vals)
    except OverflowError:  # an entry wider than a lane
        return None
    width = 1 << (len(vals).bit_length() - 1) // 2
    rows = _rows(table, width)
    # v fits (64 - margin) bits exactly when v + 2^(63-margin) lies in [0, 2^(64-margin)):
    # then no lane borrows from the next and the top margin bits of every lane read 0
    tops = _lane_tops(width)
    bias, high = tops >> margin, (tops - (tops >> margin)) << 1
    if any((r + bias) & high for r in rows):
        return None
    return rows


def _butterfly(vals: list[int]) -> list[int]:
    """The Walsh-Hadamard transform of a table of 2^n ints, in place; returns vals.

    A table that _packed takes with margin n runs on its rows: the stages
    over the rows transform the b high coordinates of every lane at once.
    No lane overflows: a partial sum adds at most 2^n entries, one of them
    with sign +, so it lies in [-2^63, 2^63).  The rows are transposed for
    the a low coordinates and unpacked transposed back.  Other tables run
    the stages on their entries.
    """
    rows = _packed(vals, len(vals).bit_length() - 1)
    if rows is None:
        return _stages(vals)
    height = len(rows)
    rows = _stages(_transposed(_stages(rows), len(vals) // height))
    vals[:] = _columns(rows, height).tolist()
    return vals


def walsh_transform(f: VertexFunction) -> VertexFunction:
    """Unnormalized coefficient table: result[u] = sum_x f(x) * (-1)^(u.x).

    An O(n * 2^n) integer butterfly on the stored ints, over the stored
    denominator.  Applying it twice multiplies by 2^n; the normalized
    coefficient <f, chi_u> equals result[u] / 2^n.
    """
    ints, d = _int_table(f)
    return _from_ints(f.n, _butterfly(list(ints)), d)


def inverse_walsh(fhat: VertexFunction) -> VertexFunction:
    """Inverse of walsh_transform: f(x) = (1/2^n) * sum_u fhat(u) * (-1)^(u.x)."""
    ints, d = _int_table(fhat)
    return _from_ints(fhat.n, _butterfly(list(ints)), d << fhat.n)


def tensor(*factors: VertexFunction) -> VertexFunction:
    """Tensor product of the factors, the first in the low bits; tensor() is 1 on H(0).

    For two factors f1 on H(m) and f2, the value at code y*2^m + x is
    f1(x)*f2(y).  The cap on the summed dimension is checked before any
    product; the factors' int tables are folded into one table over the
    product of their denominators.
    """
    n = sum(f.n for f in factors)
    if n > MAX_DIMENSION:
        raise ValueError(f"tensor dimension {n} exceeds the cap {MAX_DIMENSION}")
    table, d = [1], 1
    for f in factors:
        ints, q = _int_table(f)
        table = [x * y for y in ints for x in table]
        d *= q
    return _from_ints(n, table, d)


def restrict(f: VertexFunction, r: int, k: int) -> VertexFunction:
    """Fix coordinate r (1-based) to bit k; returns the slice on H(n-1)."""
    if f.n < 1:
        raise ValueError("cannot restrict a function on H(0)")
    _check_int("coordinate", r, 1, f.n)
    _check_int("bit", k, 0, 1)
    b = r - 1
    ints, d = _int_table(f)
    return _from_ints(f.n - 1, [c for x, c in enumerate(ints) if (x >> b & 1) == k], d)


def parity_twist(f: VertexFunction) -> VertexFunction:
    """Multiply pointwise by (-1)^(weight of the vertex); an involution."""
    ints, d = _int_table(f)
    return _from_ints(f.n, [-c if weight(x) & 1 else c for x, c in enumerate(ints)], d)


def inner_product(f: VertexFunction, g: VertexFunction) -> Fraction:
    """Normalized inner product (1/2^n) * sum_x f(x)g(x)."""
    f._check_same_cube(g)
    (a, da), (b, db) = _int_table(f), _int_table(g)
    return Fraction(sum(map(mul, a, b)), da * db << f.n)


def support(f: VertexFunction) -> frozenset[int]:
    """Vertex codes where f is nonzero (exact zero test)."""
    return frozenset(compress(range(1 << f.n), _int_table(f)[0]))


def support_size(f: VertexFunction) -> int:
    ints = _int_table(f)[0]
    return len(ints) - ints.count(0)
