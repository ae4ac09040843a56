"""Brute-force verification engine for band support minima and classification.

Feasibility of a candidate support S for a band is decided with no help
from the construction code: build the matrix whose rows are the characters
at masks with weight outside the band, restricted to the columns x in S,
and test the columns for rational linear dependence by exact integer
elimination.  The smallest dependent support is the band minimum and a
kernel vector is a witness.  Classification counts orbits: a minimal
support is a circuit and carries one function up to scale, so the
blueprints are every class exactly when each lies in the band with the
minimal support, their canonical forms under the full automorphism group
(coordinate permutations composed with translations, plus scaling) are
distinct, and their orbits' minimal supports through 0 (Blueprint.placements)
sum to the number found.  Only when that fails is every support's
witness function canonicalised, by the same canonical_form.

The support scan and the kernel extraction share one elimination engine,
_bareiss_step.  A column is one Python int holding row k in the k-th
fixed-width signed lane; the columns are one transform, the Walsh
stages of functions._stages that the spectral layer runs, on the table
holding the lane of row k at mask rows[k], folded onto the bits the
vertices use.  A step is the fraction-free
Bareiss update (q * bp - r * c) / d with d the previous pivot
(E. H. Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968).  After it every entry is
a minor of the starting +-1 matrix, so Hadamard's bound k^(k/2) on a
minor of size k fixes a lane width that no entry outgrows; the division
is exact lane by lane, and since a packed column is linear in its lanes,
it is exact on the whole int even where the product overflowed a lane.
A zero test is `not column`.
The scan counts, not visits, children whose subtrees hold no dependence,
a child inherits its independent suffix from its parent's chain, a child
through an independent column reads which pivot zeroes each of its
columns off the columns that chain held, and one below the bound the
directions of the columns give the dependent supports.
Kernel vectors, their combinations and their level tests stay Python
ints, and the VertexFunctions handed back are built from them
(functions._from_ints).
canonical_form compares integer tables too, read from the stored ints of
the function it is given.  It walks the distinct arrangements of the
coordinates' columns over the support depth first, from the top bit
down, and cuts every prefix whose placed bits already
fix a first support vertex earlier than the best image's, the
search-tree pruning of B. D. McKay, A. Piperno, "Practical graph
isomorphism, II", J. Symbolic Comput. 60, 2014.

A band scan starts with its bound at the sharp bound B = max(2^i, 2^(n-j))
of the paper, which some band member attains, so it examines exactly the
supports through 0 of size at most B: sum_{t<B} C(2^n - 1, t) nodes.  A
scan from B that records nothing runs again from 2^n, so the minimum found
never rests on the theorem.

The dual of band [i, j] is [n-j, n-i]: its rows are the complements
u ^ (2^n - 1), and chi_(u ^ (2^n - 1))(x) = (-1)^|x| chi_u(x), so each
column of its scan only keeps or flips its sign, and the two scans find
the same minimum, supports and nodes.  The band sweeps min_support_all
and verify_all scan each dual pair once (_band_scans), but every band
builds its witness from its own rows by _witness; no witness is carried
across the pair.

Scans are restricted to supports containing vertex 0, which is harmless:
translating a function multiplies each Fourier coefficient by +-1, so band
membership and support size are translation invariant.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

from .constructions import Blueprint, build, enumerate_blueprints
from .functions import MAX_DIMENSION, VertexFunction, _check_int, _from_ints, _int_table, _stages, support_size
from .spectral import SpectrumSet, _check_band, _levels, in_band

EXHAUSTIVE_LIMIT = 5
CANONICAL_LIMIT = 8


class LimitError(ValueError):
    """The exhaustive limit on n, which the keyword argument `keyword` lifts.

    The message names ``keyword=True``; `template` holds it with a {}
    where that switch goes, so a front end can name its own.
    """

    template = f"exhaustive search beyond n={EXHAUSTIVE_LIMIT} needs {{}}"

    def __init__(self, keyword: str):
        super().__init__(self.template.format(f"{keyword}=True"))


def _check_exhaustive(n: int, lifted: bool, keyword: str, top: int = MAX_DIMENSION) -> None:
    """n an int, n <= EXHAUSTIVE_LIMIT unless lifted, and always n <= top: MAX_DIMENSION
    for a dense witness table, CANONICAL_LIMIT for canonicalised witnesses."""
    _check_int("n", n)
    if n > EXHAUSTIVE_LIMIT and not lifted:
        raise LimitError(keyword)
    _check_int("n", n, 0, top)


def _rows(n: int, levels) -> list[int]:
    """The constraint rows: every mask whose weight is not among levels."""
    return [u for u in range(1 << n) if u.bit_count() not in levels]


def _lanes(k: int, count: int) -> tuple[int, int]:
    """Lane width and read bias for count packed lanes of minors of size <= k.

    By Hadamard's bound a k x k matrix with entries in [-1, 1] has
    |det| <= k^(k/2), so a minor of size at most k has |m| <= isqrt(k^k) =
    M, and a two's-complement lane of M.bit_length() + 1 bits holds all of
    [-M, M].  Adding the bias, half a lane in every lane, makes each lane
    of a packed column nonnegative, so a lane is read with a shift and a
    mask and no borrow comes up from the lanes below.
    """
    width = math.isqrt(k**k).bit_length() + 1
    return width, ((1 << width * count) - 1) // ((1 << width) - 1) << width - 1


def _packed_columns(rows, verts, width):
    """The character columns of verts over rows, row k in the k-th signed lane.

    Column x is sum_k 2^(width k) * chi_rows[k](x): the Walsh transform of
    the table holding 2^(width k) at rows[k] and 0 elsewhere.  The vertices
    use only the low h bits, h = max(verts).bit_length() (H(0) for the
    vertex 0 alone), and chi_u(x) = chi_(u mod 2^h)(x) there, so row u
    adds its lane into entry u mod 2^h of a table on H(h).  It runs on
    functions._stages, not _butterfly, since its entries are far wider
    than a 64-bit lane and would never pack.
    """
    mask = (1 << max(verts, default=0).bit_length()) - 1
    table = [0] * (mask + 1)
    for k, u in enumerate(rows):
        table[u & mask] += 1 << width * k
    cols = _stages(table)
    return [cols[x] for x in verts]


def _bareiss_step(cols, r, d, width, bias):
    """One fraction-free elimination step of packed columns against column r.

    The pivot is the lowest nonzero lane of r, with value bp; d is the
    pivot value of the step before (1 at the first step).  Each column q
    with c in the pivot lane becomes (q * bp - r * c) / d, the Bareiss
    update, so after t steps every lane holds a minor of size t + 1 of the
    starting matrix, the division is exact, and a column is zero exactly
    when it depends on the pivot columns so far.  Packed columns are
    linear, so lanes that overflow in the product come back in range after
    the division.  Columns already 0 stay 0; a column with c = 0 is only
    rescaled, to q * bp / d, so that every column stays at the same step.
    Returns (bp, the reduced columns).
    """
    mask, half = (1 << width) - 1, 1 << width - 1
    shift = ((r & -r).bit_length() - 1) // width * width
    bp = ((r + bias) >> shift & mask) - half
    return bp, [q and (q * bp - r * (((q + bias) >> shift & mask) - half)) // d for q in cols]


def _partners(cols, width, bias):
    """{k: the later m with cols[m] 0 or a multiple of cols[k]}, ascending,
    over the 0 columns and the k that have such an m.

    Column q with lead v is keyed by q * (L / v), L the lcm of the leads:
    every key leads with L, so keys agree just when q * v' == q' * v, that
    is when a _bareiss_step of q' against q gives 0.
    """
    mask, half = (1 << width) - 1, 1 << width - 1
    leads = [q and ((q + bias) >> ((q & -q).bit_length() - 1) // width * width & mask) - half for q in cols]
    scale = functools.reduce(math.lcm, filter(None, leads), 1)
    keys = [q and q * (scale // v) for q, v in zip(cols, leads)]
    if all(cols) and len(set(keys)) == len(keys):
        return {}
    last = {0: -1} | {key: k for k, key in enumerate(keys)}
    return {k: [m for m in range(k + 1, len(keys)) if keys[m] in (0, key)]
            for k, key in enumerate(keys) if not key or k < max(last[key], last[0])}


def _chain(cols, d, width, bias, trail=None):
    """Bareiss steps from the back of cols until one reduces to 0: (free, gone).

    cols[free:] is independent, and gone[k] = m - k for the pivot m whose step
    took cols[k] to 0, None if none did: the child through cols[k] has suffix
    cols[m + 1:], as cols[m] is then in span(cols[k], cols[m + 1:]) (exchange).
    A trail list gets every column list the chain holds, its trail: trail[t]
    is T_p for p = len(cols) - t, cols[:p] reduced modulo cols[p:], from
    T_len(cols) = cols down to T_free.
    """
    gone = [None] * len(cols)
    trail = [] if trail is None else trail
    trail.append(cols)
    while cols and cols[-1]:
        d, step = _bareiss_step(cols[:-1], cols[-1], d, width, bias)
        if step.count(0) > cols.count(0):
            for k in [k for k, r in enumerate(step) if not r and cols[k]]:
                gone[k] = len(step) - k
        cols = step
        trail.append(cols)
    return len(cols), gone


def _child_gone(trail, k, free, rest, width, bias):
    """The gone of _chain for the child through cols[k], read off the parent's trail.

    rest is the child's columns, cols[k + 1:] reduced against cols[k], and
    free its free: its suffix is the columns of cols[m + 1:], m = k + free.
    Its column of cols[j], k < j <= m, goes to 0 at the pivot of cols[P], P
    the largest p in [m + 1, len(cols) - 1] with cols[j] in span(cols[k],
    cols[p:]) modulo the support, that is with T_p[j] a multiple of T_p[k]:
    its gone is P - j.  In-span holds for every p up to P, so the search
    goes up from m + 1.  T_(m+1)[m] is always in span: pivot m zeroed
    cols[k], or m + 1 is free and T_free[m] is 0.  A column already 0, or
    with no such p, keeps None.
    """
    mask, half, size, m = (1 << width) - 1, 1 << width - 1, len(trail[0]), k + free

    def in_span(p, j):
        """q * bp == r * c at the lead lane of r = T_p[k], for q = T_p[j]."""
        at = trail[size - p]
        q, r = at[j], at[k]
        shift = ((r & -r).bit_length() - 1) // width * width
        return q * (((r + bias) >> shift & mask) - half) == r * (((q + bias) >> shift & mask) - half)

    gone = [None] * len(rest)
    for j in range(k + 1, m + 1):
        if rest[j - k - 1] and m + 1 < size and in_span(m + 1, j):
            p = m + 2
            while p < size and in_span(p, j):
                p += 1
            gone[j - k - 1] = p - 1 - j
    return gone


def _dfs(n, rows, cap, on_dependent):
    """Depth-first scan of the supports through vertex 0 of size at most cap.

    The root {0} is one node; with no rows its column is 0, so the point
    mass at 0 goes straight to on_dependent and nothing else is scanned.
    Otherwise supports extend by larger vertex codes, one node each, and a
    dependent one is handed to on_dependent(support, bound), which returns
    the new size bound.  The scan descends only through supports still
    below the bound, dependent ones included.  Every node carries the
    packed columns of its later candidates reduced against its support
    (0 once dependent), so a child costs one _bareiss_step.  A child with
    no dependent support below it is counted with its subtree, the sets of
    later candidates under the bound: two or more below the bound, children
    in the independent suffix (_chain, up to len(rows) pivots whatever cap
    is, so lanes hold minors that large); one below, every child but those
    _partners names, which take no step either: their dependent children
    are their partners.  Three or more below the bound a node needs its
    suffix and gone, the pivot that zeroes each column.  A child through a
    dependent column keeps its parent's; a walked child takes its suffix
    from its parent's gone and, three or more below, its gone from the
    parent's chain trail (_child_gone).  So _chain runs at the root and at
    the walked children of nodes that ran none: every other level there.
    Returns (nodes, bound).
    """
    if not rows:
        return 1, on_dependent((0,), cap)
    width, bias = _lanes(len(rows), len(rows))
    nodes, bound = 1, cap

    def visit(supp, verts, cols, d, free=None, gone=None):
        nonlocal nodes, bound
        child, size = len(supp) + 1, len(cols)
        if child + 1 == bound:
            start = 0
            for k, later in [*_partners(cols, width, bias).items(), (size, ())]:
                if child > bound:
                    return
                # children start..k-1 have no dependent child: child t is size - t
                # nodes with its subtree, or 1 once the bound has fallen to child
                nodes += k - start if child == bound else (k - start) * (2 * size + 1 - start - k) // 2
                if k == size:
                    return
                nodes += 1
                start, ns = k + 1, supp + (verts[k],)
                if not cols[k]:
                    bound = on_dependent(ns, bound)
                last = k
                for m in later:
                    if child + 1 > bound:
                        break
                    nodes += m - last
                    last = m
                    bound = on_dependent(ns + (verts[m],), bound)
                if child + 1 <= bound:
                    nodes += size - 1 - last
        trail = []  # this node's chain trail, for its walked children while it is on the path
        if child + 1 >= bound:
            free, gone = size, None
        elif free is None or gone is None and child + 2 < bound:
            free, gone = _chain(cols, d, width, bias, trail)
        for k, r in enumerate(cols[:free]):
            if child > bound:
                return
            nodes += 1
            ns = supp + (verts[k],)
            if not r:
                bound = on_dependent(ns, bound)
                if child < bound:
                    visit(ns, verts[k + 1:], cols[k + 1:], d, gone and free - k - 1, gone and gone[k + 1:])
            elif child < bound:
                bp, rest = _bareiss_step(cols[k + 1:], r, d, width, bias)
                below = gone and (gone[k] or free - k - 1)
                if trail and child + 3 < bound:
                    visit(ns, verts[k + 1:], rest, bp, below, _child_gone(trail, k, below, rest, width, bias))
                else:
                    visit(ns, verts[k + 1:], rest, bp, below)
        if free < size:
            nodes += sum(math.comb(size - free, t) for t in range(1, bound - len(supp) + 1))

    root, *cols = _packed_columns(rows, range(1 << n), width)
    bp, cols = _bareiss_step(cols, root, 1, width, bias)
    visit((0,), range(1, 1 << n), cols, bp)
    return nodes, bound


def _colex_key(supp):
    return tuple(sorted(supp, reverse=True))


def _sharp_bound(n, i, j):
    """max(2^i, 2^(n-j)): the fewest non-zeros of a nonzero band-[i, j] member, which some member attains."""
    return max(1 << i, 1 << n - j)


def _scan_supports(n, i, j, lifted, keyword, top=MAX_DIMENSION):
    """Smallest dependent supports through vertex 0 for band [i, j].

    The band check and the gate (_check_exhaustive) come before any work.
    Returns (rows, min_size, supports at min_size in colexicographic order,
    nodes_examined).  A dependent support is recorded and never extended,
    since recording lowers the bound to its size; sizes only fall, so
    found holds the supports at the current bound.  The bound starts at
    B = _sharp_bound, so the scan examines the sum_{t<B} C(2^n - 1, t)
    supports through 0 of size at most B; should it record nothing, it
    runs again from 2^n and adds its nodes (module docstring).
    """
    _check_band(n, i, j)
    _check_exhaustive(n, lifted, keyword, top)
    rows = _rows(n, range(i, j + 1))
    found: list[tuple[int, ...]] = []

    def record(supp, bound):
        if len(supp) < bound:
            found.clear()
        found.append(supp)
        return len(supp)

    nodes, size = _dfs(n, rows, _sharp_bound(n, i, j), record)
    if not found:
        more, size = _dfs(n, rows, 1 << n, record)
        nodes += more
    return rows, size, sorted(found, key=_colex_key), nodes


def _band_scans(n, lifted, keyword, top=MAX_DIMENSION):
    """(i, j, scan, start) for every band [i, j] of H(n), in (i, j) order.

    scan is what _scan_supports returns for the band, and start the clock
    when its turn came.  The gate comes once, before any scan.  Only the
    bands with i + j <= n are scanned: a band with i + j > n takes the
    minimum, supports and nodes of its dual [n-j, n-i] (module docstring),
    which the walk passed earlier, with its own rows, and the held scan is
    dropped once used.
    """
    _check_exhaustive(n, lifted, keyword, top)
    held = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            start = time.perf_counter()
            if i + j > n:
                rows, scan = _rows(n, range(i, j + 1)), held.pop((n - j, n - i))
            else:
                rows, *scan = _scan_supports(n, i, j, lifted, keyword, top)
                if i + j < n:
                    held[i, j] = scan
            yield i, j, (rows, *scan), start


def _kernel_basis(rows, supp):
    """Kernel of the character constraint matrix over the support columns.

    Each packed column is extended by unit lanes, above the constraint
    lanes, that track how it gets combined, and the columns are eliminated
    in order with _bareiss_step; a column whose constraint lanes are zero
    when its turn comes is not a pivot, and its unit lanes are a kernel
    vector.  Scaled to 1 at its own column it is the reduced-echelon
    kernel vector of that free column.  A unit lane holds, up to sign, a
    minor of the constraint matrix of size at most the number of pivots,
    so lanes for minors of size min(len(rows), len(supp)) hold every
    entry.  Returns these vectors as int lists aligned with the support,
    each scaled to one common L > 0 at its own column (the lcm of the
    own-lane values): exactly L times the reduced-echelon vectors, so their
    combinations are those of the echelon basis.
    """
    m, size = len(rows), len(supp)
    width, bias = _lanes(min(m, size), m + size)
    top = width * m
    mask = (1 << width) - 1
    half = 1 << width - 1
    cols = [c + (1 << top + width * k) for k, c in enumerate(_packed_columns(rows, supp, width))]
    free = []
    d = 1
    for k in range(size):
        r = cols[k]
        if r & (1 << top) - 1:
            d, cols[k + 1:] = _bareiss_step(cols[k + 1:], r, d, width, bias)
        else:
            v = (r + bias) >> top
            free.append((k, [(v >> width * t & mask) - half for t in range(size)]))
    scale = math.lcm(*(vec[k] for k, vec in free))
    return [[a * (scale // vec[k]) for a in vec] for k, vec in free]


def _table(n, supp, vec) -> list[int]:
    """The dense table on H(n) holding vec on the support and 0 elsewhere."""
    vals = [0] * (1 << n)
    any(map(vals.__setitem__, supp, vec))  # __setitem__ returns None, so any() runs it through
    return vals


def _normalize_witness(ints) -> list[int]:
    """Divide an integer kernel vector by its content, signed to make the lead positive."""
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


def _witness(n, rows, supp) -> VertexFunction:
    """The witness function of supp: its normalized first kernel vector, the only one when supp is minimal."""
    return _from_ints(n, _table(n, supp, _normalize_witness(_kernel_basis(rows, supp)[0])))


def _arrangement_walk(n, codes, on_leaf):
    """Depth-first over the coordinate arrangements of distinct codes that reach the best max-min.

    An arrangement is a coordinate permutation, built by placing one column
    (a coordinate's bits over the codes) per bit from bit n - 1 down; equal
    columns give one arrangement.  Its max-min is the max over translations
    w of min(t ^ w) over the moved codes t.  Along a path the codes fall
    into groups that agree on the bits placed so far.  A column that leaves
    a group whole gives that group's max-min a 1 in its bit, since w takes
    the opposite bit; one that splits it gives a 0, since the minimum lies
    in whichever half w matches.  So the best groups' bits, top, are the
    top bits of the max-min of every completion: only the groups that reach
    top are kept, and a prefix whose top is below the bound on its bits is
    cut.  At a leaf the kept groups are single codes, the k-th reached by
    w = moved[k] ^ top, and on_leaf(moved, top, those k) returns the new
    bound (-1 cuts nothing).  Columns, groups and the moved codes are ints
    with an n-bit lane per code, and only the current path is held.
    """
    width = n or 1  # H(0) has one vertex, and it needs a lane too
    mask = (1 << n) - 1
    lanes = range(0, width * len(codes), width)
    bound = -1

    def visit(rest, packed, top, groups):
        nonlocal bound
        if not rest:
            leads = [(g.bit_length() - 1) // width for g in groups]
            bound = on_leaf([packed >> s & mask for s in lanes], top, leads)
            return
        p = len(rest) - 1
        for k, c in enumerate(rest):
            if k and c == rest[k - 1]:
                continue
            whole = [g for g in groups if g & c in (0, g)]
            if whole:
                kept, reach = whole, top | 1 << p
            else:
                kept, reach = [h for g in groups for h in (g & c, g & ~c)], top
            if reach >> p >= bound >> p:
                visit(rest[:k] + rest[k + 1:], packed | c << p, reach, kept)

    columns = sorted(sum((t >> c & 1) << s for t, s in zip(codes, lanes)) for c in range(n))
    visit(columns, 0, 0, [sum(1 << s for s in lanes)])


def canonical_form(f: VertexFunction) -> VertexFunction:
    """Class representative under automorphisms of H(n) and scaling.

    Each candidate c * (f o pi), for pi a coordinate permutation composed
    with a translation, is scaled to +1 at its first support vertex, and
    the smallest value table (vertex-code order) wins: the minimum over the
    whole group.  Images are compared as int tables, from the stored ints
    of f on its support: an image led by value u holds v * (L // u) at
    each vertex, L the lcm of the |v|, which is L times the image scaled to
    +1 at its first support vertex, so int tables order the images exactly.
    With the support moved to pass through 0, coordinates with equal
    columns swap without moving f, so the distinct arrangements of
    _arrangement_walk, each with every translation, yield every image.  A
    later first support vertex makes a smaller table, so only the
    translations that reach an arrangement's max-min are compared, and the
    walk cuts every prefix whose max-min falls below the best table's.  The
    best table, whose first nonzero entry is L, divided by L is the form.
    Idempotent and constant on classes.
    """
    n = f.n
    if n > CANONICAL_LIMIT:
        raise ValueError(f"canonical_form sweeps the full group only for n <= {CANONICAL_LIMIT}")
    table = _int_table(f)[0]
    codes = [x for x, c in enumerate(table) if c]
    if not codes:
        raise ValueError("canonical_form needs a nonzero function")
    ints = [table[x] for x in codes]
    scale = math.lcm(*{abs(v) for v in ints})
    by_lead = {u: [v * (scale // u) for v in ints] for u in set(ints)}  # [k]: ints[k] / u * scale
    best = None

    def compare(moved, top, leads):
        nonlocal best
        for k in leads:
            w = moved[k] ^ top
            image = _table(n, [t ^ w for t in moved], by_lead[ints[k]])
            if best is None or image < best:
                best = image
        return top

    _arrangement_walk(n, [x ^ codes[0] for x in codes], compare)
    return _from_ints(n, best, scale)


def equivalent(f: VertexFunction, g: VertexFunction) -> bool:
    """Whether g equals c * (f o pi) for some automorphism pi and scale c.

    Decided by canonical forms alone, so only for nonzero f, g and n <= 8.
    """
    f._check_same_cube(g)
    return canonical_form(f) == canonical_form(g)


@dataclass(frozen=True)
class SearchReport:
    """Everything a search run learned; serialized by cubespec.serialize."""

    n: int
    i: int | None = None
    j: int | None = None
    levels: tuple[int, ...] | None = None
    min_support: int | None = None
    witness: VertexFunction | None = None
    classes_found: tuple[VertexFunction, ...] = ()
    matched_blueprints: tuple[tuple[Blueprint, int | None], ...] = ()
    ok: bool = True
    notes: tuple[str, ...] = ()
    elapsed: float | None = field(default=None, compare=False)
    nodes_examined: int = 0


def min_support(n: int, i: int, j: int, *, unsafe: bool = False) -> SearchReport:
    """Exhaustive minimum support of a nonzero band-[i, j] member of H(n).

    The scan starts with its bound at the sharp bound max(2^i, 2^(n-j)) and
    lowers it to each dependent support it records (module docstring); the
    reported witness comes from the colexicographically first minimal
    support.  Refuses n beyond the exhaustive limit unless unsafe is set,
    and beyond MAX_DIMENSION always.
    """
    start = time.perf_counter()
    return _min_report(n, i, j, _scan_supports(n, i, j, unsafe, "unsafe"), start)


def min_support_all(n: int, *, unsafe: bool = False) -> tuple[SearchReport, ...]:
    """min_support of every band of H(n) in (i, j) order; each dual pair is scanned once (_band_scans)."""
    bands = _band_scans(n, unsafe, "unsafe")
    return tuple(_min_report(n, i, j, scan, start) for i, j, scan, start in bands)


def _min_report(n, i, j, scan, start) -> SearchReport:
    """The min_support report of band [i, j] from its scan, timed from start."""
    rows, size, supports, nodes = scan
    return SearchReport(
        n=n, i=i, j=j, min_support=size, witness=_witness(n, rows, supports[0]),
        elapsed=time.perf_counter() - start, nodes_examined=nodes,
    )


def _exact_combination(n, supp, kernel, target):
    """An integer kernel vector whose spectrum is exactly `target`, or None.

    Any kernel member's spectrum is contained in target by construction,
    so exactness is achievable iff every target level is hit by some basis
    vector, and then a generic small-integer combination works: each level
    rules out at most dim-1 multiplier values.  With one basis vector the
    first try, t = 1, is that vector.
    """
    reach = frozenset()
    for vec in kernel:
        reach |= _levels(_table(n, supp, vec))
        if reach == target:
            break
    if reach != target:
        return None
    for t in range(1, len(target) * len(kernel) + 2):
        combo = [sum(t**m * vec[c] for m, vec in enumerate(kernel)) for c in range(len(supp))]
        if _levels(_table(n, supp, combo)) == target:
            return combo
    raise RuntimeError("generic combination search exhausted; this should not happen")


def min_support_exact_spectrum(
    n: int, levels, *, unsafe: bool = False, max_size: int | None = None
) -> SearchReport:
    """Minimum support over functions whose spectrum is exactly `levels`.

    Same dependence scan as min_support with the band replaced by the
    allowed coefficient levels, but a feasible support must additionally
    admit a kernel combination hitting every level.  Exactness is not
    inherited by subsets, so the scan descends through dependent supports
    as well.  The witness is the least by (size, colexicographic support,
    values) among the witnesses the scan built.  Their supports need not
    hold vertex 0 and can be smaller than the scanned ones, and the scan
    reaches only supports under its bound, which starts at the cap and
    falls to each witness's size, so a cap changes which witnesses it
    builds: at n = 5, levels {2, 3}, the minimum is 4 whatever the cap, on
    support {5, 6, 9, 10} with no cap, {3, 5, 10, 12} with max_size 8,
    {1, 2, 13, 14} with 5 and {0, 6, 9, 15} with 4.

    With max_size set, reports no witness (min_support None) when nothing
    achieves exactness within the cap.
    """
    target = SpectrumSet(n, levels).levels
    if not target:
        raise ValueError("levels must be nonempty")
    if max_size is not None:
        _check_int("max_size", max_size)
    _check_exhaustive(n, unsafe, "unsafe")
    start = time.perf_counter()
    rows = _rows(n, target)
    cap = 1 << n if max_size is None else min(max_size, 1 << n)
    best = None  # (size, colex support, int table) of the best witness so far

    def handle(supp, bound):
        nonlocal best
        combo = _exact_combination(n, supp, _kernel_basis(rows, supp), target)
        if combo is None:
            return bound
        wsize = len(combo) - combo.count(0)
        if wsize > bound:
            return bound
        table = _table(n, supp, _normalize_witness(combo))
        key = (wsize, _colex_key(x for x, v in enumerate(table) if v), table)
        best = key if best is None else min(best, key)
        return wsize

    nodes, _ = _dfs(n, rows, cap, handle)
    size, _, table = best or (None, None, None)
    return SearchReport(
        n=n, levels=tuple(sorted(target)),
        min_support=size, witness=None if best is None else _from_ints(n, table),
        notes=() if best else ("no witness within the size cap",),
        elapsed=time.perf_counter() - start, nodes_examined=nodes,
    )


def verify_classification(n: int, i: int, j: int, *, extended: bool = False) -> SearchReport:
    """Cross-check the optimal classes of a band against the blueprints.

    Collects every minimal-size feasible support through vertex 0.  The
    blueprints are the classes when (a) each is in the band, by in_band,
    with support exactly the minimum, (b) their canonical forms are
    distinct and (c) their placements sum to the number of supports found
    (module docstring); then only the reported witness takes a kernel.
    Otherwise the fallback builds the witness of every support (_witness)
    and dedupes them by canonical_form.  ok is True only when the minimum
    equals the sharp bound and the match is a bijection with no extras and
    no misses.  Refuses n beyond the exhaustive limit unless extended is
    set, and beyond CANONICAL_LIMIT always.
    """
    start = time.perf_counter()
    return _classify(n, i, j, _scan_supports(n, i, j, extended, "extended", CANONICAL_LIMIT), start)


def verify_all(n: int, *, extended: bool = False) -> tuple[SearchReport, ...]:
    """verify_classification of every band of H(n) in (i, j) order; each dual pair is scanned once."""
    bands = _band_scans(n, extended, "extended", CANONICAL_LIMIT)
    return tuple(_classify(n, i, j, scan, start) for i, j, scan, start in bands)


def _classify(n, i, j, scan, start) -> SearchReport:
    """The verify_classification report of band [i, j] from its scan, timed from start."""
    rows, size, supports, nodes = scan
    expected = _sharp_bound(n, i, j)
    notes = []
    if size != expected:
        notes.append(f"minimum support {size} differs from the sharp bound {expected}")
    bps = enumerate_blueprints(n, i, j)
    built = [build(bp) for bp in bps]
    forms = [canonical_form(f) for f in built]
    optimal = all(support_size(f) == size and in_band(f, i, j) for f in built)
    distinct = len(set(forms)) == len(forms)
    if optimal and distinct and sum(bp.placements for bp in bps) == len(supports):
        classes, witness = forms, _witness(n, rows, supports[0])
    else:
        witnesses = [_witness(n, rows, s) for s in supports]
        classes, witness = set(map(canonical_form, witnesses)), witnesses[0]
    classes = tuple(sorted(classes, key=lambda c: c.values))
    class_index = {c: idx for idx, c in enumerate(classes)}
    matched = tuple(zip(bps, map(class_index.get, forms)))
    mismatches = [
        f"blueprint {bp.case} odd={bp.odd_parts} even={bp.even_parts} "
        f"r={bp.remainder} matches no search class"
        for bp, idx in matched if idx is None
    ]
    if not distinct:
        mismatches.append("distinct blueprints collided in canonical form")
    if len(bps) != len(classes):
        mismatches.append(f"{len(classes)} search classes vs {len(bps)} blueprints")
    return SearchReport(
        n=n, i=i, j=j, min_support=size, witness=witness,
        classes_found=classes, matched_blueprints=matched,
        ok=size == expected and not mismatches, notes=tuple(notes + mismatches),
        elapsed=time.perf_counter() - start, nodes_examined=nodes,
    )
