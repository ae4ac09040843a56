"""Eigenvalue-level machinery of the hypercube.

The adjacency spectrum of H(n) is n - 2i for levels i = 0..n; the level-i
eigenspace is spanned by the characters chi_u with weight(u) = i.  The
spectrum of a function is the set of levels carrying a nonzero Fourier
coefficient, and a function lies "in band [i, j]" when every coefficient
outside weights i..j vanishes (so the zero function is in every band).
Every character table and every level question comes from the
transform: character(n, u) is the transform of the point mass at u, and
the spectrum, the band test and the level projection read the transform
of the function's stored int table (functions._int_table).

check_eigen_relation tests the eigenvalue relation from its definition,
without the transform, but on the transform's stage design: one stage
per coordinate, on the packed rows of functions._packed when the table
leaves room in each lane for the relation's sums, and on the entries
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add

from .functions import (
    MAX_DIMENSION,
    VertexFunction,
    _butterfly,
    _check_int,
    _from_ints,
    _int_table,
    _packed,
    _transposed,
    restrict,
)


def _check_band(n: int, i: int, j: int) -> None:
    try:
        _check_int("n", n)
        _check_int("i", i, 0, n)
        _check_int("j", j, i, n)
    except ValueError:
        raise ValueError(f"invalid band [{i}, {j}] for n={n}") from None


@dataclass(frozen=True)
class SpectrumSet:
    """Set of eigenvalue levels present in a function, with its ambient n.

    n must be a nonnegative int.  Levels are stored as a frozenset, and
    each must be an int in 0..n.
    """

    n: int
    levels: frozenset[int]

    def __post_init__(self):
        _check_int("n", self.n)
        object.__setattr__(self, "levels", frozenset(self.levels))
        for i in self.levels:
            _check_int("level", i, 0, self.n)

    @property
    def sorted_levels(self) -> tuple[int, ...]:
        return tuple(sorted(self.levels))


def character(n: int, u: int) -> VertexFunction:
    """The character chi_u(x) = (-1)^(u.x), a +-1 valued function on H(n).

    The Walsh transform of the point mass at u, built from ints, so its
    values hold two Fractions, each shared by every vertex that takes its
    value.
    """
    _check_int("dimension", n, 0, MAX_DIMENSION)
    _check_int("vertex code", u, 0, (1 << n) - 1)
    spike = [0] * (1 << n)
    spike[u] = 1
    return _from_ints(n, _butterfly(spike))


def eigenvalue_of_level(n: int, i: int) -> int:
    """Adjacency eigenvalue of H(n) attached to level i."""
    _check_int("n", n)
    _check_int("level", i, 0, n)
    return n - 2 * i


def _levels(ints: list[int]) -> frozenset[int]:
    """Weights of the nonzero coefficients of an int table, transformed in place."""
    return frozenset(map(int.bit_count, compress(range(len(ints)), _butterfly(ints))))


def spectrum(f: VertexFunction) -> SpectrumSet:
    """Levels with a nonzero Fourier coefficient; empty for the zero function."""
    return SpectrumSet(f.n, _levels(list(_int_table(f)[0])))


def level_project(f: VertexFunction, i: int) -> VertexFunction:
    """Component of f in the level-i eigenspace; the projections sum to f.

    Transforms, masks and transforms back the stored ints of f, then
    divides by its denominator d times 2^n.
    """
    _check_int("level", i, 0, f.n)
    ints, d = _int_table(f)
    coeffs = _butterfly(list(ints))
    masked = [0] * len(coeffs)
    for u in compress(range(len(coeffs)), coeffs):
        if u.bit_count() == i:
            masked[u] = coeffs[u]
    return _from_ints(f.n, _butterfly(masked), d << f.n)


def in_band(f: VertexFunction, i: int, j: int) -> bool:
    """True iff every Fourier coefficient at weight outside [i, j] is zero."""
    _check_band(f.n, i, j)
    return all(i <= a <= j for a in _levels(list(_int_table(f)[0])))


def _neighbour_stages(vals: list, sums: list) -> list:
    # one stage per coordinate: add the values across the top bit into the
    # sums, then rotate the top bit of both lists to bit 0 as _stages does
    half = len(vals) >> 1
    for _ in range(half.bit_length()):
        lo, hi = vals[:half], vals[half:]
        sums[0::2], sums[1::2] = map(add, sums[:half], hi), map(add, sums[half:], lo)
        vals[0::2], vals[1::2] = lo, hi
    return sums


def check_eigen_relation(f: VertexFunction, lam: int) -> bool:
    """Direct test of lam * f(x) = sum of f over the n neighbors of x, at every x.

    Works straight from the value table, independently of the transform,
    on the stored ints of f (its values times their common denominator).
    The sums start at -lam * f, and one stage per coordinate adds the
    neighbours across it.  A table that _packed takes with margin
    (n + |lam|).bit_length() runs the stages on its rows for the high
    coordinates, then on both lists transposed for the low ones.  No lane
    leaves its 64 bits: every sum is at most (|lam| + n) * max |f| in
    size, and |lam| + n < 2^margin.  Other tables run the stages on their
    entries.  Every sum must be 0.
    """
    _check_int("lambda", lam, None)
    vals = _int_table(f)[0]
    rows = _packed(vals, (f.n + abs(lam)).bit_length())
    if rows is None:
        return not any(_neighbour_stages(list(vals), list(map((-lam).__mul__, vals))))
    sums = _neighbour_stages(rows, list(map((-lam).__mul__, rows)))
    width = len(vals) // len(rows)
    return not any(_neighbour_stages(_transposed(rows, width), _transposed(sums, width)))


def _clip_band(i: int, j: int, m: int) -> tuple[int, int]:
    return min(max(i, 0), m), min(max(j, 0), m)


def reduction_check(f: VertexFunction, i: int, j: int, r: int) -> bool:
    """Check the three slice statements for f in band [i, j] and coordinate r.

    With f0, f1 the slices fixing coordinate r: f0 - f1 must lie in band
    [i-1, j-1], f0 + f1 in band [i, j], and each slice in band [i-1, j],
    all on H(n-1) with bands clipped to [0, n-1].
    """
    _check_band(f.n, i, j)
    f0, f1 = restrict(f, r, 0), restrict(f, r, 1)
    checks = ((f0 - f1, i - 1, j - 1), (f0 + f1, i, j), (f0, i - 1, j), (f1, i - 1, j))
    return all(in_band(g, *_clip_band(lo, hi, f.n - 1)) for g, lo, hi in checks)
