"""Faces, trades, algebraic degree and affine-subspace structure.

An (n-m)-face fixes m coordinates of H(n) to constants.  A pair of
disjoint nonempty vertex sets {T0, T1} is a [t]-trade when every
(n-t)-face contains equally many elements of each.  The positive and
negative parts of an optimal band function form such a trade, its support
is an affine subspace whose characteristic function has low algebraic
degree, and the subspace splits back into the trade by parity over a
disjoint-support basis.  This module provides each of those ingredients
as an independently testable operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .functions import VertexFunction, _check_int, _scaled_ints, weight


def _faces_balanced(n: int, weighted, t: int) -> bool:
    """True iff every (n-t)-face sums the (code, weight) pairs to zero.

    The face fixing the coordinates of a t-set P at given bits is
    identified by x & mask(P), so one pass over the pairs per t-set
    projects every pair onto its face and accumulates all 2^t face sums.
    """
    for positions in combinations(range(n), t):
        mask = sum(1 << c for c in positions)
        sums = {}
        for x, w in weighted:
            key = x & mask
            sums[key] = sums.get(key, 0) + w
        if any(sums.values()):
            return False
    return True


def face_sums_vanish(f: VertexFunction, i: int) -> bool:
    """True iff every (n-i+1)-face of H(n) sums f to exactly zero.

    This holds for every member of the level-i eigenspace and is the
    face-level mechanism behind the trade structure of optimal functions.
    Sums run on the table scaled to ints: zero exactly when the rational ones are.
    """
    _check_int("level", i, 1, f.n)
    ints, _ = _scaled_ints(f.values)
    return _faces_balanced(f.n, [(x, v) for x, v in enumerate(ints) if v], i - 1)


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
    """Balance test: every (n-t)-face holds equally many of t0 and t1."""
    _check_int("trade parameter", t, 0, tp.n)
    weighted = [(x, 1) for x in tp.t0] + [(x, -1) for x in tp.t1]
    return _faces_balanced(tp.n, weighted, t)


def sign_split(f: VertexFunction) -> TradePair:
    """Positive-support / negative-support pair of f."""
    t0 = frozenset(x for x, v in enumerate(f.values) if v > 0)
    t1 = frozenset(x for x, v in enumerate(f.values) if v < 0)
    if not t0 or not t1:
        raise ValueError("sign_split needs both positive and negative values")
    return TradePair(t0, t1, f.n)


def three_values_check(f: VertexFunction) -> bool:
    """True iff the nonzero values of f all share one magnitude."""
    magnitudes = {abs(v) for v in f.values if v != 0}
    if not magnitudes:
        raise ValueError("three_values_check needs a nonzero function")
    return len(magnitudes) == 1


def anf_degree(indicator: VertexFunction) -> int:
    """Algebraic degree of a 0/1-valued function.

    Computed by the in-place Moebius butterfly over Z_2: the coefficient at
    monomial mask m is the XOR of the values over the subcube below m, and
    the degree is the largest popcount of a nonzero coefficient mask.
    """
    if any(v not in (0, 1) for v in indicator.values):
        raise ValueError("anf_degree expects a 0/1-valued indicator")
    coeffs = [int(v) for v in indicator.values]
    if not any(coeffs):
        raise ValueError("anf_degree expects a nonzero indicator")
    size = len(coeffs)
    h = 1
    while h < size:
        for i in range(0, size, h * 2):
            for j in range(i, i + h):
                coeffs[j + h] ^= coeffs[j]
        h *= 2
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
