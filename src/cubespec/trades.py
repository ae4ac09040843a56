"""Faces, trades, algebraic degree and affine-subspace structure.

An (n-m)-face fixes m coordinates of H(n) to constants.  A pair of
disjoint nonempty vertex sets {T0, T1} is a [t]-trade when every
(n-t)-face contains equally many elements of each.  The positive and
negative parts of an optimal band function form such a trade, its support
is an affine subspace whose characteristic function has low algebraic
degree, and the subspace splits back into the trade by parity over a
disjoint-support basis.  This module provides each of those ingredients
as an independently testable operation.

No face is enumerated: every face fixing the coordinates of P sums g to
zero exactly when g's transform vanishes at every mask inside P, so the
faces fixing m coordinates all do exactly when g has no level <= m.
Both face tests ask that of an int table through _levels_above, whose
work follows the table's support.  tests/test_trades.py checks them
against the face scans of tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import xor

from .functions import VertexFunction, _check_int, _scaled_ints, weight


def _levels_above(g: dict[int, int], t: int) -> bool:
    """True iff every level of the int table with nonzero entries g is > t.

    One butterfly stage per coordinate, from bit 0 up, on the support alone:
    with g0, g1 the halves of g at bit 0 = 0, 1, the levels of g are those
    of g0 + g1 and, one higher, those of g0 - g1.  Where the bit is the same
    on the whole support, g0 - g1 = +-(g0 + g1) and only the sum is tested.
    By induction on the same split, a nonzero table with no level <= t has
    at least 2^(t+1) nonzero entries, so a smaller one fails at once.
    """
    stack = [(g, t)]
    while stack:
        g, t = stack.pop()
        if t < 0 or not g:
            continue
        if len(g) < 2 << t:
            return False
        plus, minus = {}, {}
        for x, w in g.items():
            plus[x >> 1] = plus.get(x >> 1, 0) + w
            minus[x >> 1] = minus.get(x >> 1, 0) + (-w if x & 1 else w)
        stack.append(({y: w for y, w in plus.items() if w}, t))
        if len({x & 1 for x in g}) == 2:
            stack.append(({y: w for y, w in minus.items() if w}, t - 1))
    return True


def face_sums_vanish(f: VertexFunction, i: int) -> bool:
    """True iff every (n-i+1)-face of H(n) sums f to exactly zero.

    This holds for every member of the level-i eigenspace and is the
    face-level mechanism behind the trade structure of optimal functions.
    Computed as: every level of f's table, scaled to ints, is > i - 1;
    checked against the face scan tests.oracles.faces.
    """
    _check_int("level", i, 1, f.n)
    ints, _ = _scaled_ints(f.values)
    return _levels_above({x: v for x, v in enumerate(ints) if v}, i - 1)


@dataclass(frozen=True)
class TradePair:
    """Two disjoint nonempty vertex sets, candidates for a [t]-trade."""

    t0: frozenset[int]
    t1: frozenset[int]
    n: int

    def __post_init__(self):
        if not self.t0 or not self.t1:
            raise ValueError("both sets of a trade pair must be nonempty")
        if self.t0 & self.t1:
            raise ValueError("trade pair sets must be disjoint")
        _check_int("n", self.n)
        for x in self.t0 | self.t1:
            _check_int("vertex code", x, 0, (1 << self.n) - 1)


def is_trade(tp: TradePair, t: int) -> bool:
    """Balance test: every (n-t)-face holds equally many of t0 and t1.

    Computed as: every level of the table that is +1 on t0, -1 on t1 and
    0 elsewhere is > t, at a cost that follows |t0| + |t1|, not 2^n.
    Never true at t = n, where faces are vertices.  Checked against the
    face scan tests.oracles.naive_is_trade.
    """
    _check_int("trade parameter", t, 0, tp.n)
    return _levels_above({**dict.fromkeys(tp.t0, 1), **dict.fromkeys(tp.t1, -1)}, t)


def sign_split(f: VertexFunction) -> TradePair:
    """Positive-support / negative-support pair of f, read from the numerators' signs."""
    signs = [v.numerator for v in f.values]
    t0 = frozenset(x for x, s in enumerate(signs) if s > 0)
    t1 = frozenset(x for x, s in enumerate(signs) if s < 0)
    if not t0 or not t1:
        raise ValueError("sign_split needs both positive and negative values")
    return TradePair(t0, t1, f.n)


def three_values_check(f: VertexFunction) -> bool:
    """True iff the nonzero values of f all share one magnitude."""
    magnitudes = {abs(v) for v in f.values if v}
    if not magnitudes:
        raise ValueError("three_values_check needs a nonzero function")
    return len(magnitudes) == 1


def anf_degree(indicator: VertexFunction) -> int:
    """Algebraic degree of a 0/1-valued function.

    Computed by the Moebius butterfly over Z_2: the coefficient at
    monomial mask m is the XOR of the values over the subcube below m, and
    the degree is the largest popcount of a nonzero coefficient mask.
    """
    coeffs, d = _scaled_ints(indicator.values)
    if d != 1 or not {*coeffs} <= {0, 1}:
        raise ValueError("anf_degree expects a 0/1-valued indicator")
    if not any(coeffs):
        raise ValueError("anf_degree expects a nonzero indicator")
    # one stage per coordinate, as in functions._stages: the top bit to bit 0
    half = len(coeffs) >> 1
    for _ in range(half.bit_length()):
        lo, hi = coeffs[:half], coeffs[half:]
        coeffs[0::2] = lo
        coeffs[1::2] = map(xor, lo, hi)
    return max(weight(m) for m, c in enumerate(coeffs) if c)


@dataclass(frozen=True)
class AffineSubspace:
    """Affine subspace of Z_2^n as a translation plus an echelon basis.

    The basis is stored in the reduced echelon form of _rref_gf2, whatever
    basis of the direction space it was given.
    """

    n: int
    translation: int
    basis: tuple[int, ...]

    def __post_init__(self):
        _check_int("n", self.n)
        for x in (self.translation, *self.basis):
            _check_int("vertex code", x, 0, (1 << self.n) - 1)
        reduced = _rref_gf2(self.basis)
        if len(reduced) != len(self.basis):
            raise ValueError(f"affine basis {list(self.basis)} has a zero or dependent vector")
        object.__setattr__(self, "basis", tuple(reduced))

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def members(self):
        """Yield the 2^dim member codes."""
        for bits in range(1 << len(self.basis)):
            x = self.translation
            for idx, b in enumerate(self.basis):
                if bits >> idx & 1:
                    x ^= b
            yield x


def _rref_gf2(vectors) -> list[int]:
    """Reduced echelon basis over Z_2, pivots on the lowest coordinates first."""
    basis: list[int] = []  # kept sorted by pivot (lowest set bit)
    for v in vectors:
        for b in basis:
            low = b & -b
            if v & low:
                v ^= b
        if v:
            low = v & -v
            basis = [b ^ v if b & low else b for b in basis]
            basis.append(v)
    basis.sort(key=lambda b: b & -b)
    return basis


def detect_affine(s, n: int) -> AffineSubspace | None:
    """Recognize a vertex set in H(n) as an affine subspace.

    Returns the subspace with translation = smallest member and the reduced
    echelon basis of the difference set, or None if s is not affine.  The
    set is affine exactly when its size equals 2^(rank of the differences).
    """
    _check_int("n", n)
    s = set(s)
    if not s:
        raise ValueError("detect_affine needs a nonempty vertex set")
    for x in s:
        _check_int("vertex code", x, 0, (1 << n) - 1)
    t = min(s)
    basis = _rref_gf2(sorted(x ^ t for x in s))
    if 1 << len(basis) != len(s):
        return None
    return AffineSubspace(n, t, tuple(basis))


def has_disjoint_support_basis(sub: AffineSubspace) -> bool:
    """True iff the direction space has a basis of pairwise disjoint masks.

    A disjoint-support basis is already in reduced echelon form, and the
    reduced echelon basis is unique, so it suffices to test the stored
    echelon basis for pairwise disjointness.
    """
    for a, b in combinations(sub.basis, 2):
        if a & b:
            return False
    return True


def split_subspace(sub: AffineSubspace) -> TradePair:
    """Split a (t+1)-dimensional subspace with disjoint basis into a [t]-trade.

    Members reached by an even number of basis vectors go to t0, odd to t1.
    """
    if sub.dimension < 1:
        raise ValueError("split_subspace needs dimension >= 1")
    if not has_disjoint_support_basis(sub):
        raise ValueError("split_subspace needs a disjoint-support basis")
    t0, t1 = set(), set()
    for bits, x in enumerate(sub.members()):
        (t1 if weight(bits) & 1 else t0).add(x)
    return TradePair(frozenset(t0), frozenset(t1), sub.n)
