"""Independent reference implementations used to pin expected values.

Everything here is written in the most literal O(4^n)-ish style on purpose
so it shares no code path with the library: double-sum transforms, an int
transform by the recursive split (f0 + f1, f0 - f1),
subset-XOR algebraic coefficients, explicit face scans, a Gauss-Jordan
kernel, an all-subsets rank search that does not use the library's
pruning, a canonical form that builds and compares every dense image
table, and a stabiliser order that tests every map of the group.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

from cubespec import VertexFunction, make_function


def weight(x: int) -> int:
    return bin(x).count("1")


def sign(u: int, x: int) -> int:
    return -1 if weight(u & x) % 2 else 1


def naive_walsh(f: VertexFunction) -> VertexFunction:
    size = 1 << f.n
    vals = [
        sum((f.values[x] * sign(u, x) for x in range(size)), Fraction(0))
        for u in range(size)
    ]
    return make_function(f.n, vals)


def naive_inverse_walsh(fhat: VertexFunction) -> VertexFunction:
    size = 1 << fhat.n
    vals = [
        sum((fhat.values[u] * sign(u, x) for u in range(size)), Fraction(0)) / size
        for x in range(size)
    ]
    return make_function(fhat.n, vals)


def naive_int_walsh(vals: list[int]) -> list[int]:
    """The unnormalized transform of an int table of length 2^n by the recursive split.

    With f0 and f1 the halves where the top coordinate is 0 and 1, the
    coefficients with top bit 0 are the transform of f0 + f1 and those with
    top bit 1 the transform of f0 - f1, both on H(n-1).
    """
    if len(vals) == 1:
        return list(vals)
    half = len(vals) // 2
    f0, f1 = vals[:half], vals[half:]
    return naive_int_walsh([a + b for a, b in zip(f0, f1)]) + naive_int_walsh([a - b for a, b in zip(f0, f1)])


def naive_coefficient(f: VertexFunction, u: int) -> Fraction:
    """One unnormalized Walsh coefficient, sum_x f(x) * (-1)^(u.x), by a single sum."""
    return sum((f.values[x] * sign(u, x) for x in range(1 << f.n)), Fraction(0))


def naive_level_projection(f: VertexFunction, i: int) -> list[Fraction]:
    """(1/2^n) * sum over weight-i u of coefficient(u) * chi_u, summed over those u only."""
    size = 1 << f.n
    level = [(u, naive_coefficient(f, u)) for u in range(size) if weight(u) == i]
    return [sum((c * sign(u, x) for u, c in level), Fraction(0)) / size for x in range(size)]


def naive_tensor(values1, values2) -> list[Fraction]:
    """Value at code c is values1[c mod m] * values2[c div m], m = len(values1),
    one Fraction product per code."""
    low = len(values1)
    return [Fraction(values1[c % low]) * Fraction(values2[c // low])
            for c in range(low * len(values2))]


def naive_sign_split(values) -> tuple[set[int], set[int]]:
    """The codes with a value above and below Fraction(0), by Fraction comparison."""
    zero = Fraction(0)
    return ({x for x, v in enumerate(values) if Fraction(v) > zero},
            {x for x, v in enumerate(values) if Fraction(v) < zero})


def naive_support(values) -> set[int]:
    return {x for x, v in enumerate(values) if Fraction(v) != Fraction(0)}


def naive_is_zero(values) -> bool:
    return all(Fraction(v) == Fraction(0) for v in values)


def naive_magnitudes(values) -> set[Fraction]:
    """The absolute values of the entries that differ from Fraction(0), by Fraction comparison."""
    return {abs(Fraction(v)) for v in values if Fraction(v) != Fraction(0)}


def naive_is_zero_one(values) -> bool:
    """Whether every value equals Fraction(0) or Fraction(1)."""
    return all(Fraction(v) in (Fraction(0), Fraction(1)) for v in values)


def naive_eigen_relation(f: VertexFunction, lam) -> bool:
    """lam * f(x) equals the Fraction sum of f over every y at distance 1 from x."""
    size = 1 << f.n
    for x in range(size):
        total = Fraction(0)
        for y in range(size):
            if weight(x ^ y) == 1:
                total += f.values[y]
        if total != lam * f.values[x]:
            return False
    return True


def naive_anf_coefficients(values) -> list[int]:
    """Coefficient at mask m is the XOR of the 0/1 values over x <= m bitwise."""
    size = len(values)
    coeffs = []
    for m in range(size):
        acc = 0
        for x in range(size):
            if x & ~m == 0:
                acc ^= int(values[x])
        coeffs.append(acc)
    return coeffs


def naive_anf_degree(values) -> int:
    coeffs = naive_anf_coefficients(values)
    return max(weight(m) for m, c in enumerate(coeffs) if c)


def faces(n: int, fixed: int):
    """Yield the member lists of every face with `fixed` frozen coordinates."""
    for positions in combinations(range(n), fixed):
        free = [c for c in range(n) if c not in positions]
        for bits in product((0, 1), repeat=fixed):
            base = sum(b << c for c, b in zip(positions, bits))
            members = []
            for assign in product((0, 1), repeat=len(free)):
                code = base
                for c, b in zip(free, assign):
                    code |= b << c
                members.append(code)
            yield members


def naive_is_trade(t0, t1, n: int, t: int) -> bool:
    for members in faces(n, t):
        if sum(1 for x in members if x in t0) != sum(1 for x in members if x in t1):
            return False
    return True


def fraction_rank(matrix) -> int:
    """Row rank by plain Fraction elimination."""
    m = [[Fraction(v) for v in row] for row in matrix]
    if not m:
        return 0
    rank = 0
    ncols = len(m[0])
    row = 0
    for col in range(ncols):
        sel = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        pv = m[row][col]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                c = m[r][col] / pv
                m[r] = [a - c * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
    return rank


def rref_kernel(matrix, ncols: int) -> list[list[Fraction]]:
    """Reduced-echelon kernel basis by plain Fraction Gauss-Jordan.

    One vector per free column, in column order: 1 at its own free column,
    0 at every other free column, and minus the reduced row entry at each
    pivot column.
    """
    m = [[Fraction(v) for v in row] for row in matrix]
    pivots = []
    row = 0
    for col in range(ncols):
        sel = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        pv = m[row][col]
        m[row] = [a / pv for a in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                c = m[r][col]
                m[r] = [a - c * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -m[r][free]
        basis.append(vec)
    return basis


def naive_min_support(n: int, i: int, j: int) -> int:
    """Minimum support over the band, scanning every nonempty vertex subset.

    No vertex-0 pruning and no shared elimination state, so it double
    checks both the search result and the pruning argument.
    """
    rows = [u for u in range(1 << n) if not i <= weight(u) <= j]
    if not rows:
        return 1
    for size in range(1, (1 << n) + 1):
        for supp in combinations(range(1 << n), size):
            matrix = [[sign(u, x) for x in supp] for u in rows]
            if fraction_rank(matrix) < size:
                return size
    raise AssertionError("no feasible support found")


def minkowski(a, b) -> frozenset[int]:
    return frozenset(x + y for x in a for y in b)


def naive_canonical_form(f: VertexFunction) -> VertexFunction:
    """Smallest scaled dense table over every permutation and translation.

    The image of f under coordinate permutation perm and translation v
    takes the value f(x) at perm(x ^ v).  Each image is divided by its
    first nonzero value, and the tables are compared as lists.
    """
    size = 1 << f.n
    nonzero = [t != 0 for t in f.values]
    scaled = {}  # lead vertex -> f divided by its value there, zeros as int 0
    best = None
    for perm in permutations(range(f.n)):
        moved = [sum(1 << perm[c] for c in range(f.n) if x >> c & 1) for x in range(size)]
        inverse = [moved.index(y) for y in range(size)]
        for v in range(size):
            source = [x ^ v for x in inverse]  # the image's value at y is f(source[y])
            lead = next(x for x in source if nonzero[x])
            if lead not in scaled:
                scaled[lead] = [t / f.values[lead] if t else 0 for t in f.values]
            table = [scaled[lead][x] for x in source]
            if best is None or table < best:
                best = table
    return make_function(f.n, best)


def naive_stabiliser_order(f: VertexFunction) -> int:
    """The number of the 2^n * n! maps x -> perm(x ^ v) that send f to a multiple of itself.

    The image g of f under a map has g(perm(x ^ v)) = f(x), so g(y) =
    f(perm^-1(y) ^ v); it is c * f exactly when g(y) * f(lead) == f(y) *
    g(lead) at every vertex y, lead the first nonzero vertex of f.  The
    test runs on f times the lcm of its denominators, as ints.
    """
    size = 1 << f.n
    scale = lcm(*(Fraction(v).denominator for v in f.values))
    vals = [int(v * scale) for v in f.values]
    lead = next(x for x in range(size) if vals[x] != 0)
    count = 0
    for perm in permutations(range(f.n)):
        moved = [sum(1 << perm[c] for c in range(f.n) if x >> c & 1) for x in range(size)]
        inverse = [moved.index(y) for y in range(size)]
        for v in range(size):
            at_lead = vals[inverse[lead] ^ v]
            count += all(vals[inverse[y] ^ v] * vals[lead] == vals[y] * at_lead for y in range(size))
    return count
