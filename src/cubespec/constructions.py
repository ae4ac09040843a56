"""Factory for functions of minimum support in a spectral band.

Every optimal band member is equivalent to a tensor product of three kinds
of blocks on H(k): phi(k) (+1 at the all-zeros vertex, -1 at the all-ones
vertex), psi(k) (+1 at both), and point_mass(k) (+1 at all-zeros only).
A Blueprint records which blocks to use: a multiset of odd part sizes, a
multiset of even part sizes, and a remainder absorbed by a point mass.

LOWER blueprints (bands with i + j >= n) use phi on every part and achieve
support 2^i with i = #odd + #even parts; UPPER blueprints (i + j <= n) use
psi on the odd parts instead and achieve support 2^(n-j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .functions import MAX_DIMENSION, VertexFunction, _check_int, _from_ints, tensor
from .spectral import SpectrumSet, _check_band

LOWER = "LOWER"
UPPER = "UPPER"


def _block(name: str, k: int, k_min: int, top: int) -> VertexFunction:
    """name's block on H(k): top at the all-ones vertex, then +1 at the all-zeros one."""
    _check_int(f"{name} size", k, k_min, MAX_DIMENSION)
    vals = [0] * (1 << k)
    vals[-1] = top
    vals[0] = 1
    return _from_ints(k, vals)


def phi(k: int) -> VertexFunction:
    """+1 at the all-zeros vertex of H(k), -1 at the all-ones vertex."""
    return _block("phi", k, 1, -1)


def psi(k: int) -> VertexFunction:
    """+1 at both the all-zeros and all-ones vertices of H(k)."""
    return _block("psi", k, 1, 1)


def point_mass(k: int) -> VertexFunction:
    """+1 at the all-zeros vertex of H(k); for k = 0 the constant 1 on H(0)."""
    return _block("point_mass", k, 0, 0)


@dataclass(frozen=True)
class Blueprint:
    """Partition data naming one optimal function as a block tensor product.

    Parts, remainder and n must be ints (not bool).  Parts are stored
    sorted descending; odd_parts sum + even_parts sum + remainder must
    equal n.  The block count k + l (odd count plus even count) fixes the
    support size 2^(k+l).
    """

    case: str
    odd_parts: tuple[int, ...]
    even_parts: tuple[int, ...]
    remainder: int
    n: int

    def __post_init__(self):
        if self.case not in (LOWER, UPPER):
            raise ValueError(f"case must be {LOWER} or {UPPER}, got {self.case!r}")
        odd, even = tuple(self.odd_parts), tuple(self.even_parts)
        for p in odd:
            _check_int("odd part", p, 1)
        for p in even:
            _check_int("even part", p, 2)
        _check_int("remainder", self.remainder)
        _check_int("n", self.n)
        object.__setattr__(self, "odd_parts", tuple(sorted(odd, reverse=True)))
        object.__setattr__(self, "even_parts", tuple(sorted(even, reverse=True)))
        if any(p % 2 == 0 for p in self.odd_parts):
            raise ValueError(f"odd parts must be odd, got {self.odd_parts}")
        if any(p % 2 == 1 for p in self.even_parts):
            raise ValueError(f"even parts must be even, got {self.even_parts}")
        total = sum(self.odd_parts) + sum(self.even_parts) + self.remainder
        if total != self.n:
            raise ValueError(f"parts plus remainder sum to {total}, expected n={self.n}")

    @property
    def k(self) -> int:
        return len(self.odd_parts)

    @property
    def ell(self) -> int:
        return len(self.even_parts)

    @property
    def support_size(self) -> int:
        return 1 << (self.k + self.ell)

    @property
    def band(self) -> tuple[int, int]:
        """The band [i, j] this blueprint is optimal for."""
        if self.case == LOWER:
            return self.k + self.ell, self.n - self.ell
        return self.ell, self.n - self.k - self.ell

    @property
    def placements(self) -> int:
        """The supports through 0 of build(self)'s images under the automorphisms of H(n).
        The blocks' all-ones vectors span the support, so these are the splits of the n
        coordinates into the blocks and the remainder: n! / (r! * prod_k m_k! (k!)^m_k)."""
        parts = self.odd_parts + self.even_parts
        count = math.factorial(self.n) // math.factorial(self.remainder)
        for k in set(parts):  # m_k parts of size k; each quotient is exact
            count //= math.factorial(parts.count(k)) * math.factorial(k) ** parts.count(k)
        return count


def build(bp: Blueprint) -> VertexFunction:
    """Materialize the blueprint's tensor product, odd parts in the low bits.

    Factor order is fixed (odd parts descending, even parts descending,
    point mass last) so output tables are reproducible; any other order is
    equivalent under a coordinate permutation.  The blocks go into one
    tensor call, which builds the product table once.
    """
    _check_int("dimension", bp.n, 0, MAX_DIMENSION)  # before any block is built
    odd_block = phi if bp.case == LOWER else psi
    return tensor(*map(odd_block, bp.odd_parts), *map(phi, bp.even_parts), point_mass(bp.remainder))


def blueprint_spectrum(bp: Blueprint) -> SpectrumSet:
    """Closed-form spectrum of build(bp), computed without building it.

    The spectrum runs from i to j of the blueprint's band, with step 1 when
    the remainder is positive and step 2 when it is zero.
    """
    lo, hi = bp.band
    step = 1 if bp.remainder > 0 else 2
    return SpectrumSet(bp.n, frozenset(range(lo, hi + 1, step)))


def _part_multisets(count: int, odd: bool, max_total: int, max_part: int):
    """Yield descending tuples of `count` parts of one parity, sum <= max_total."""
    min_part = 1 if odd else 2
    first = min(max_part, max_total - min_part * (count - 1))
    first -= (first + odd) % 2  # the largest part of the right parity
    if count == 0 or first == min_part:  # one tuple, not one recursion per part
        yield (min_part,) * count
        return
    for p in range(first, min_part - 1, -2):
        for rest in _part_multisets(count - 1, odd, max_total - p, p):
            yield (p,) + rest


def enumerate_blueprints(n: int, i: int, j: int) -> list[Blueprint]:
    """All blueprints of optimal functions for the band [i, j] on H(n).

    For i + j >= n these are LOWER blueprints with k + l = i and l >= n - j;
    for i + j < n, UPPER blueprints with k + l = n - j and l >= i.  On the
    boundary i + j = n both characterizations coincide part-for-part; the
    LOWER form is returned.
    """
    _check_band(n, i, j)
    if i + j >= n:
        case, target, ell_min = LOWER, i, n - j
    else:
        case, target, ell_min = UPPER, n - j, i
    found = []
    for ell in range(max(ell_min, 0), target + 1):
        k = target - ell
        for odd_parts in _part_multisets(k, True, n - 2 * ell, n):
            left = n - sum(odd_parts)
            for even_parts in _part_multisets(ell, False, left, n):
                r = left - sum(even_parts)
                found.append(Blueprint(case, odd_parts, even_parts, r, n))
    found.sort(key=lambda bp: (bp.odd_parts, bp.even_parts))
    return found


def single_level_blueprint(n: int, i: int) -> Blueprint:
    """The unique blueprint for a single-level band [i, i].

    For i >= n/2: LOWER with 2i-n odd parts of size 1 and n-i even parts of
    size 2; for i < n/2 the mirrored UPPER blueprint.
    """
    (bp,) = enumerate_blueprints(n, i, i)
    return bp


def is_progression_spectrum(s: SpectrumSet, i: int, j: int, band_side: str) -> bool:
    """Whether s is an arithmetic progression with difference 1 or 2,
    anchored at i (LOWER) or at j (UPPER), staying inside [i, j].

    Every optimal function's spectrum has this shape; a band member whose
    spectrum does not is strictly above the support bound.
    """
    _check_band(s.n, i, j)
    if band_side not in (LOWER, UPPER):
        raise ValueError(f"band_side must be {LOWER} or {UPPER}, got {band_side!r}")
    levels = s.sorted_levels
    if not levels:
        raise ValueError("empty spectrum")
    if band_side == LOWER:
        if levels[0] != i or levels[-1] > j:
            return False
    else:
        if levels[-1] != j or levels[0] < i:
            return False
    if len(levels) == 1:
        return True
    diffs = {b - a for a, b in zip(levels, levels[1:])}
    return len(diffs) == 1 and diffs.pop() in (1, 2)
