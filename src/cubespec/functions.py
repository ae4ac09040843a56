"""Exact rational functions on the vertices of the hypercube H(n).

Vertices of H(n) are the elements of Z_2^n, encoded as integer bitmasks in
[0, 2^n) with coordinate 1 in the least significant bit.  A VertexFunction
stores one Fraction per vertex (ints are converted, floats and other types
rejected), so every transform and every zero test in this package is exact.
Dense-table arithmetic scales a table once by the lcm of its denominators and
runs on Python ints; the result gets one Fraction per distinct value, shared
by every vertex that holds it (_fractions).  Zero and sign tests read
truthiness and numerators, never Fraction comparisons.

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
from itertools import compress, groupby, repeat
from operator import add, mul, sub

MAX_DIMENSION = 24
_INT_RE = re.compile(r"-?\d+", re.ASCII)
_RATIONAL_RE = re.compile(rf"({_INT_RE.pattern})(?:/([1-9]\d*))?", re.ASCII)
# _packed packs tables of at least this many entries into 64-bit lanes;
# below it, packing costs more than the stages it saves
_PACK_MIN = 1 << 8
_LANE_TOP = bytes(7) + b"\x80"  # one little-endian 64-bit lane with its top bit set
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


@dataclass(frozen=True)
class VertexFunction:
    """A function H(n) -> Q given by its dense value table in vertex-code order.

    Instances are immutable: values is stored as a tuple whatever
    sequence is given (a tuple as is, without a copy), and all operations
    below return new objects, so values may be shared freely across threads.
    """

    n: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        _check_int("dimension", self.n, 0, MAX_DIMENSION)
        object.__setattr__(self, "values", tuple(self.values))  # a tuple is kept, not copied
        if len(self.values) != 1 << self.n:
            raise ValueError(
                f"value table has length {len(self.values)}, expected {1 << self.n} for n={self.n}"
            )
        types = {*map(type, self.values)}
        if types != {Fraction}:
            if not types <= {int, Fraction}:  # a Fraction subclass, or a bad entry to name
                for k, v in enumerate(self.values):
                    if type(v) is not int and not isinstance(v, Fraction):
                        raise ValueError(f"value at index {k} is {type(v).__name__}, expected int or Fraction")
            object.__setattr__(self, "values", _fractions(self.values))

    def __add__(self, other: "VertexFunction") -> "VertexFunction":
        return self._entrywise(add, other)

    def __sub__(self, other: "VertexFunction") -> "VertexFunction":
        return self._entrywise(sub, other)

    def scale(self, c) -> "VertexFunction":
        c = as_fraction(c)
        ints, d = _scaled_ints(self.values)
        return VertexFunction(self.n, _fractions(list(map(c.numerator.__mul__, ints)), d * c.denominator))

    def _entrywise(self, op, other: "VertexFunction") -> "VertexFunction":
        # both tables scaled to ints over one common denominator
        self._check_same_cube(other)
        ints, d = _scaled_ints(self.values + other.values)
        size = len(self.values)
        return VertexFunction(self.n, _fractions(list(map(op, ints[:size], ints[size:])), d))

    def is_zero(self) -> bool:
        return not any(self.values)

    def _check_same_cube(self, other: "VertexFunction") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} != {other.n}")


def make_function(n: int, values) -> VertexFunction:
    """Build a VertexFunction from any iterable of exact rationals.

    Accepts ints, Fractions and 'p' / 'p/q' strings; floats are rejected.
    Only the entries that are neither int nor Fraction go through
    as_fraction; VertexFunction converts the ints.
    """
    exact = (int, Fraction)
    return VertexFunction(n, tuple(v if type(v) in exact else as_fraction(v) for v in values))


def zero_function(n: int) -> VertexFunction:
    return constant_function(n, 0)


def constant_function(n: int, c) -> VertexFunction:
    _check_int("dimension", n, 0, MAX_DIMENSION)
    return VertexFunction(n, (as_fraction(c),) * (1 << n))


def _scaled_ints(values) -> tuple[list[int], int]:
    """Integers c and the lcm d of the denominators, with values[k] == c[k] / d."""
    ratios = list(map(Fraction.as_integer_ratio, values))
    d = math.lcm(*{q for _, q in ratios})
    return [p * (d // q) for p, q in ratios], d


def _fractions(ints, d: int = 1) -> tuple[Fraction, ...]:
    """The table ints[k] / d as Fractions, one Fraction per distinct entry.

    Entries may be ints or Fractions; d is a nonzero int.  Equal entries
    share one Fraction object, so a table of a few distinct values costs a
    few Fractions whatever its length.  Entries below 2^61 - 1 in magnitude
    hash to themselves, so a set interns them in linear time.  Wider ints
    hash to their value mod 2^61 - 1, and a table of them sharing one
    residue would fill one hash bucket, so such tables intern by sorting and
    each entry finds its Fraction by bisection.
    """
    if -_HASH_MODULUS < min(ints) and max(ints) < _HASH_MODULUS:
        value = {c: Fraction(c, d) for c in set(ints)}
        return tuple(map(value.__getitem__, ints))
    distinct = [c for c, _ in groupby(sorted(ints))]
    value = [Fraction(c, d) for c in distinct]
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

    An O(n * 2^n) integer butterfly on the table scaled by the lcm d of its
    denominators, divided back by d.  Applying it twice multiplies by 2^n;
    the normalized coefficient <f, chi_u> equals result[u] / 2^n.
    """
    ints, d = _scaled_ints(f.values)
    return VertexFunction(f.n, _fractions(_butterfly(ints), d))


def inverse_walsh(fhat: VertexFunction) -> VertexFunction:
    """Inverse of walsh_transform: f(x) = (1/2^n) * sum_u fhat(u) * (-1)^(u.x)."""
    ints, d = _scaled_ints(fhat.values)
    return VertexFunction(fhat.n, _fractions(_butterfly(ints), d << fhat.n))


def tensor(*factors: VertexFunction) -> VertexFunction:
    """Tensor product of the factors, the first in the low bits; tensor() is 1 on H(0).

    For two factors f1 on H(m) and f2, the value at code y*2^m + x is
    f1(x)*f2(y).  The cap on the summed dimension is checked before any
    product; the factors' tables, scaled to ints, are folded into one
    table over the product of their common denominators, which becomes
    Fractions once.
    """
    n = sum(f.n for f in factors)
    if n > MAX_DIMENSION:
        raise ValueError(f"tensor dimension {n} exceeds the cap {MAX_DIMENSION}")
    table, d = [1], 1
    for f in factors:
        ints, q = _scaled_ints(f.values)
        table = [x * y for y in ints for x in table]
        d *= q
    return VertexFunction(n, _fractions(table, d))


def restrict(f: VertexFunction, r: int, k: int) -> VertexFunction:
    """Fix coordinate r (1-based) to bit k; returns the slice on H(n-1)."""
    if f.n < 1:
        raise ValueError("cannot restrict a function on H(0)")
    _check_int("coordinate", r, 1, f.n)
    _check_int("bit", k, 0, 1)
    b = r - 1
    return VertexFunction(f.n - 1, tuple(v for x, v in enumerate(f.values) if (x >> b & 1) == k))


def parity_twist(f: VertexFunction) -> VertexFunction:
    """Multiply pointwise by (-1)^(weight of the vertex); an involution."""
    ints, d = _scaled_ints(f.values)
    return VertexFunction(f.n, _fractions([-c if weight(x) & 1 else c for x, c in enumerate(ints)], d))


def inner_product(f: VertexFunction, g: VertexFunction) -> Fraction:
    """Normalized inner product (1/2^n) * sum_x f(x)g(x)."""
    f._check_same_cube(g)
    (a, da), (b, db) = _scaled_ints(f.values), _scaled_ints(g.values)
    return Fraction(sum(map(mul, a, b)), da * db << f.n)


def support(f: VertexFunction) -> frozenset[int]:
    """Vertex codes where f is nonzero (exact zero test)."""
    return frozenset(compress(range(1 << f.n), f.values))


def support_size(f: VertexFunction) -> int:
    return sum(map(bool, f.values))
