import dataclasses
import math
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

import pytest

from cubespec import (
    Blueprint,
    LOWER,
    UPPER,
    build,
    canonical_form,
    enumerate_blueprints,
    equivalent,
    make_function,
    min_support,
    min_support_exact_spectrum,
    parity_twist,
    phi,
    point_mass,
    spectrum,
    support_size,
    tensor,
    verify_classification,
)
from cubespec import search
from cubespec.search import _kernel_basis
from conftest import mixed_table
from oracles import (
    fraction_rank,
    naive_canonical_form,
    naive_character,
    naive_is_zero,
    naive_min_support,
    naive_stabiliser_order,
    rref_kernel,
    sign,
)

EXTENDED = os.environ.get("CUBESPEC_EXTENDED") == "1"

# every band with n <= 4 and the nine n = 5 bands with bound <= 4
SMALL_BANDS = [(n, i, j) for n in range(1, 5) for i in range(n + 1) for j in range(i, n + 1)] + [
    (5, i, j) for i in range(3) for j in range(3, 6)
]


class TestMinSupport:
    def test_small_band_witness(self):
        report = min_support(2, 1, 1)
        assert report.min_support == 2
        assert list(report.witness.values) == [1, 0, 0, -1]
        assert equivalent(report.witness, phi(2))

    def test_sharp_bound_examples(self):
        assert min_support(3, 2, 3).min_support == 4
        assert min_support(4, 1, 2).min_support == 4

    def test_matches_unpruned_all_subsets_oracle(self):
        for n in (1, 2, 3):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    assert min_support(n, i, j).min_support == naive_min_support(n, i, j)

    def test_witness_is_normalized_and_in_band(self):
        report = min_support(4, 2, 2)
        w = report.witness
        assert support_size(w) == report.min_support
        ints = [v for v in w.values if v != 0]
        assert all(v.denominator == 1 for v in ints)
        assert ints[0] > 0
        assert spectrum(w).levels <= {2}

    def test_full_band_is_a_point_mass(self):
        report = min_support(3, 0, 3)
        assert report.min_support == 1
        assert list(report.witness.values) == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_exhaustive_limit(self):
        with pytest.raises(ValueError):
            min_support(6, 2, 3)

    def test_limit_error_names_the_keyword(self):
        with pytest.raises(ValueError, match=r"needs unsafe=True"):
            min_support(6, 2, 3)
        with pytest.raises(ValueError, match=r"needs unsafe=True"):
            min_support_exact_spectrum(6, {0, 3})

    # The lift reaches only as far as a dense witness table: n <= 24 is
    # decided before any constraint row is built.
    @pytest.mark.parametrize("search_call", [
        lambda: min_support(25, 0, 25, unsafe=True),
        lambda: min_support(40, 0, 40, unsafe=True),
        lambda: min_support_exact_spectrum(25, [0], unsafe=True),
    ], ids=["band-n25", "band-n40", "exact-n25"])
    def test_lifted_gate_refuses_n_above_the_table_cap(self, no_scan, search_call):
        with pytest.raises(ValueError, match=re.escape("n must be an int in [0, 24], got")):
            search_call()

    # Counts that hold however the scan runs.  [0, 0] and [n, n] have no
    # dependent support below the whole cube, so every support through 0 is
    # examined: 2^(2^n - 1) nodes.  [0, 1] and [n - 1, n] have bound
    # 2^(n-1), met first by the hyperplane x_n = 0 at the end of the
    # leftmost path; after it every support through 0 of size at most
    # 2^(n-1) is examined, half of all subsets of the other 2^n - 1
    # vertices: 2^(2^n - 2) nodes.  The two n = 5 bands with bound 16 have
    # no such closed form; their counts are pinned as measured, since a
    # faster scan must examine the same nodes.
    @pytest.mark.parametrize("n,i,j,nodes", [
        *((n, i, i, 2 ** (2**n - 1)) for n in range(1, 6) for i in (0, n)),
        *((n, i, i + 1, 2 ** (2**n - 2)) for n in range(2, 5) for i in (0, n - 1)),
        *(pytest.param(5, i, i + 1, 2**30, marks=pytest.mark.skipif(
            not EXTENDED, reason="set CUBESPEC_EXTENDED=1 for the 2^30-node n=5 scans"))
          for i in (0, 4)),
        *(pytest.param(5, i, i, 1_076_985_435, marks=pytest.mark.skipif(
            not EXTENDED, reason="set CUBESPEC_EXTENDED=1 for the n=5 bound-16 scans"))
          for i in (1, 4)),
    ])
    def test_nodes_examined_where_the_count_is_known(self, n, i, j, nodes):
        report = min_support(n, i, j)
        assert report.nodes_examined == nodes
        assert report.min_support == max(1 << i, 1 << n - j)


# Every band with n <= 4, and the nine n = 5 bands with bound <= 4.
DUALITY_BANDS = [(n, i, j) for n in range(5) for i in range(n + 1) for j in range(i, n + 1)]
DUALITY_BANDS += [(5, i, j) for i in range(3) for j in range(3, 6)]


@pytest.mark.parametrize("search_run", [
    lambda: min_support(3, 1, 2),
    lambda: verify_classification(3, 0, 2),
    lambda: min_support_exact_spectrum(3, [0, 3]),
], ids=["min_support", "verify_classification", "exact_spectrum"])
def test_search_reports_compare_by_result_not_by_clock(search_run):
    first, second = search_run(), search_run()
    assert first.elapsed is not None and second.elapsed is not None
    assert first == second and hash(first) == hash(second)
    later = dataclasses.replace(first, elapsed=first.elapsed + 1)
    assert later == first and hash(later) == hash(first)
    assert dataclasses.replace(first, nodes_examined=first.nodes_examined + 1) != first


class TestParityDuality:
    # The columns of band [n-j, n-i] are those of band [i, j] times (-1)^|x|,
    # which changes no dependence: the two scans must agree node for node,
    # and the twist must carry one witness to the other.
    @pytest.mark.parametrize("n,i,j", DUALITY_BANDS)
    def test_dual_bands_scan_alike(self, n, i, j):
        _, *scan = search._scan_supports(n, i, j, False, "unsafe")
        _, *dual_scan = search._scan_supports(n, n - j, n - i, False, "unsafe")
        assert dual_scan == scan
        dual = min_support(n, n - j, n - i).witness
        assert dual.values == parity_twist(min_support(n, i, j).witness).values


class TestPackedColumns:
    @staticmethod
    def oracle(rows, verts, width):
        # lane k of column x holds sign(rows[k], x), in two's complement
        return [sum(sign(u, x) * (1 << width * k) for k, u in enumerate(rows)) for x in verts]

    def test_matches_the_sign_oracle(self, rng):
        kinds = Counter()
        for _ in range(400):
            n = rng.randint(0, 6)
            rows = rng.sample(range(1 << n), rng.choice([0, rng.randint(0, 1 << n)]))
            kind = rng.choice(["range", "through 0", "scattered"])
            if kind == "range":
                verts = range(1 << n)
            else:
                # supports as _kernel_basis gets them, through vertex 0 or not
                verts = sorted(rng.sample(range(1 << n), rng.randint(1, 1 << n)))
                verts = [0, *verts[1:]] if kind == "through 0" else verts
            width = search._lanes(len(rows), len(rows))[0] if rng.random() < 0.5 else rng.randint(2, 9)
            assert search._packed_columns(rows, verts, width) == self.oracle(rows, verts, width), (rows, verts)
            kinds[kind, "no rows" if not rows else "rows"] += 1
        assert len(kinds) == 6, kinds

    def test_no_vertices(self):
        assert search._packed_columns([1, 2], [], 4) == []

    def test_no_rows_on_vertex_zero(self):
        # H(0): the empty constraint matrix over the single vertex
        assert search._packed_columns([], [0], 4) == self.oracle([], [0], 4) == [0]

    def test_vertices_above_the_highest_row_bit(self, rng):
        for _ in range(50):
            n = rng.randint(1, 5)
            rows = rng.sample(range(1 << n), rng.randint(1, 1 << n))
            top = max(rows).bit_length()
            verts = sorted(rng.sample(range(1 << top, 1 << top + 3), rng.randint(1, 8)))
            width = rng.randint(2, 9)
            assert search._packed_columns(rows, verts, width) == self.oracle(rows, verts, width), (rows, verts)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_every_band(self, n, rng):
        # every scan's columns, over the whole cube and over a support through 0
        for i in range(n + 1):
            for j in range(i, n + 1):
                rows = search._rows(n, range(i, j + 1))
                width = search._lanes(len(rows), len(rows))[0]
                verts = range(1 << n) if n < 8 else [0, *sorted(rng.sample(range(1, 1 << n), 15))]
                assert search._packed_columns(rows, verts, width) == self.oracle(rows, verts, width), (i, j)

    def test_vertices_below_the_highest_row_bit(self, rng, monkeypatch):
        # the rows fold onto the h bits the vertices use: one table on H(h), whatever n is
        sizes = []
        stages = search._stages
        monkeypatch.setattr(search, "_stages", lambda table: sizes.append(len(table)) or stages(table))
        for _ in range(60):
            n = rng.randint(2, 8)
            rows = rng.sample(range(1 << n), rng.randint(1, min(1 << n, 40)))
            h = rng.randint(0, n - 1)
            verts = sorted(rng.sample(range(1 << h), rng.randint(1, min(1 << h, 8))))
            width = search._lanes(len(rows), len(rows))[0] if rng.random() < 0.5 else rng.randint(2, 9)
            chars = {u: naive_character(n, u) for u in rows}
            expected = [sum(chars[u][x] << width * k for k, u in enumerate(rows)) for x in verts]
            sizes.clear()
            assert search._packed_columns(rows, verts, width) == expected, (n, rows, verts)
            assert sizes == [1 << max(verts).bit_length()]

    def test_small_support_at_n_8(self, monkeypatch):
        # the kernel of phi(2) x phi(2) x point_mass(4)'s support in [2,6] at n = 8
        # transforms a table on H(4), the bits its vertices use, not on H(8)
        sizes = []
        stages = search._stages
        monkeypatch.setattr(search, "_stages", lambda table: sizes.append(len(table)) or stages(table))
        (vec,) = _kernel_basis(search._rows(8, range(2, 7)), [0, 3, 12, 15])
        assert search._normalize_witness(vec) == [1, -1, -1, 1]
        assert sizes == [16]


class TestKernelBasis:
    @staticmethod
    def check_against_oracle(rows, supp):
        matrix = [[sign(u, x) for x in supp] for u in rows]
        kernel = _kernel_basis(rows, supp)
        assert len(kernel) == len(supp) - fraction_rank(matrix)
        assert fraction_rank(kernel) == len(kernel)
        for vec in kernel:
            assert all(type(a) is int for a in vec)
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in matrix)
        # Every vector is one common positive L times the reduced-echelon
        # vector of its free column.
        scales = set()
        for vec, ref in zip(kernel, rref_kernel(matrix, len(supp))):
            own = ref.index(1)
            scales.add(vec[own])
            assert [Fraction(a, vec[own]) for a in vec] == ref
        assert len(scales) <= 1 and all(L > 0 for L in scales)
        return kernel

    def test_matches_fraction_rank_oracle(self, rng):
        dims = set()
        for _ in range(300):
            n = rng.randrange(1, 5)
            rows = rng.sample(range(1 << n), rng.randrange(0, (1 << n) + 1))
            supp = tuple(sorted(rng.sample(range(1 << n), rng.randrange(1, (1 << n) + 1))))
            dims.add(len(self.check_against_oracle(rows, supp)))
        assert 0 in dims and max(dims) >= 4

    def test_sylvester_hadamard_has_no_kernel(self):
        # All 16 characters on all 16 vertices of H(4): the Sylvester-Hadamard
        # matrix, whose determinant 16^8 meets the Hadamard bound the lanes
        # are sized by.
        assert _kernel_basis(range(16), range(16)) == []

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_pivot_at_the_hadamard_bound_is_read(self, n):
        # With half = 2^(n-1), rows u or u ^ half for u < half are a
        # Sylvester-Hadamard matrix on the vertices below half, so pivot
        # number half is +-half^(half/2), the largest value a lane holds,
        # and the columns of the vertices from half on are reduced with it.
        # Flipping the odd-weight rows keeps those columns from being
        # multiples of the ones below half.
        half = 1 << n - 1
        rows = [u ^ half if u.bit_count() & 1 else u for u in range(half)]
        assert len(self.check_against_oracle(rows, range(2 * half))) == half

    def test_n5_supports_match_fraction_rank_oracle(self, rng):
        for _ in range(40):
            rows = rng.sample(range(32), rng.randint(1, 32))
            supp = tuple(sorted(rng.sample(range(32), rng.randint(1, 32))))
            self.check_against_oracle(rows, supp)


class TestDfs:
    def test_matches_fraction_rank_oracle(self, rng):
        # The hook gets exactly the supports whose last column depends on
        # the columns before it.  Rows [1, 2, 4] at n = 3: every residual
        # is live at the root, and each one reduces to zero below a third
        # vertex.  Rows [1, 2, 4, 8] at n = 4: the columns are every +-1
        # vector of length 4, so residuals reduce to zero at the fourth
        # pivot, and some of those pivots are +16, the largest value a lane
        # holds.
        cases = [(3, [1, 2, 4], 8), (4, [1, 2, 4, 8], 5)]
        for _ in range(200):
            n = rng.randint(1, 3)
            cases.append((n, rng.sample(range(1 << n), rng.randint(1, 1 << n)), rng.randint(2, 1 << n)))
        for n, top_cap in [(4, 5)] * 6 + [(5, 3)] * 2:
            cases.append((n, rng.sample(range(1 << n), rng.randint(1, 1 << n)), rng.randint(2, top_cap)))
        turned_none = 0
        for n, rows, cap in cases:
            @cache
            def rank(supp):
                return fraction_rank([[sign(u, x) for x in supp] for u in rows])

            seen = []

            def hook(supp, bound):
                seen.append(supp)
                return bound

            nodes, bound = search._dfs(n, rows, cap, hook)
            supports = [(0, *rest) for k in range(cap) for rest in combinations(range(1, 1 << n), k)]
            assert (nodes, bound) == (len(supports), cap)
            assert sorted(seen) == sorted(s for s in supports if rank(s) == rank(s[:-1])), rows
            turned_none += sum(len(s) > 2 and rank((0, s[-1])) == 2 for s in seen)
        assert turned_none

    @staticmethod
    def walk(n, rows, cap, on_dependent, rank):
        """The scan by its definition: every node visited, dependence by rank."""
        nodes, bound = 1, cap

        def visit(supp):
            nonlocal nodes, bound
            child = len(supp) + 1
            for x in range(supp[-1] + 1, 1 << n):
                if child > bound:
                    return
                nodes += 1
                if rank(supp + (x,)) == rank(supp):
                    bound = on_dependent(supp + (x,), bound)
                if child < bound:
                    visit(supp + (x,))

        visit((0,))
        return nodes, bound

    # Three hooks: one keeps the bound, one lowers it to the support's size
    # as _scan_supports records, and one mostly keeps it but now and then
    # lowers it to at most the support's size, as the exact-spectrum hook
    # does when it descends through dependent supports.
    HOOKS = {
        "keep": lambda supp, bound: bound,
        "record": lambda supp, bound: len(supp),
        "descend": lambda supp, bound: (
            min(bound, len(supp) - supp[-1] % 2) if sum(supp) % 5 == 0 else bound),
    }

    @staticmethod
    def counted_cases(rng):
        # Capped cases with more rows than the cap: the independent suffix
        # then takes more pivots than any support under the cap has.
        cases = [(4, [u for u in range(16) if u.bit_count() != 2], 4),
                 (5, [u for u in range(32) if u.bit_count() != 1], 3),
                 (5, rng.sample(range(32), 6), 4)]
        cases += [(n, rng.sample(range(1 << n), rng.randint(1, 1 << n)), rng.randint(2, 1 << n))
                  for n in (1, 2, 3) for _ in range(12)]
        cases += [(4, rng.sample(range(16), rng.randint(cap + 1, 16)), cap) for cap in (4, 5)]
        return cases

    def test_counted_scan_matches_a_plain_walk(self, rng, monkeypatch):
        # Children the scan resolves without a step: the independent suffix
        # two or more below the bound, and one below it every child whose
        # column is not 0, counted in closed form or through its partners.
        shortcuts = Counter()
        chain, partners = search._chain, search._partners

        def suffix(cols, *args):
            free, gone = chain(cols, *args)
            shortcuts["suffix"] += len(cols) - free
            return free, gone

        def one_below(cols, *args):
            walk = partners(cols, *args)
            shortcuts["with partners"] += sum(1 for k in walk if cols[k])
            shortcuts["closed form"] += len(cols) - len(walk)
            return walk

        monkeypatch.setattr(search, "_chain", suffix)
        monkeypatch.setattr(search, "_partners", one_below)
        for n, rows, cap in self.counted_cases(rng):
            @cache
            def rank(supp):
                return fraction_rank([[sign(u, x) for x in supp] for u in rows])

            for name, hook in self.HOOKS.items():
                got, want = [], []

                def seen(log):
                    return lambda supp, bound: log.append((supp, bound)) or hook(supp, bound)

                assert search._dfs(n, rows, cap, seen(got)) == self.walk(
                    n, rows, cap, seen(want), rank), (n, rows, cap, name)
                assert got == want, (n, rows, cap, name)
        assert shortcuts["suffix"] and shortcuts["with partners"] and shortcuts["closed form"], shortcuts

    def test_inherited_suffix_matches_a_fresh_chain(self, rng):
        # A node that inherits free (and, below a dependent support, gone)
        # from its parent must hold what its own _chain would find.  The
        # profiler sees each call of _dfs's inner visit with its arguments
        # and the lanes it closes over.
        inherited = Counter()

        def check(frame, event, arg):
            code = frame.f_code
            if event != "call" or code.co_name != "visit" or code.co_filename != search.__file__:
                return
            at = frame.f_locals
            if at["free"] is None:
                return
            free, gone = search._chain(at["cols"], at["d"], at["width"], at["bias"])
            assert at["free"] == free, (at["supp"], at["bound"])
            if at["gone"] is not None:
                assert at["gone"] == gone, (at["supp"], at["bound"])
            inherited["walked" if at["gone"] is None else "below a dependent support"] += 1

        for n, rows, cap in self.counted_cases(rng):
            for hook in self.HOOKS.values():
                sys.setprofile(check)
                try:
                    search._dfs(n, rows, cap, hook)
                finally:
                    sys.setprofile(None)
        assert inherited["walked"] and inherited["below a dependent support"], inherited

    @pytest.mark.parametrize("n,cap", [(0, 1), (3, 8), (3, 0)])
    def test_no_rows_hands_the_point_mass_to_the_hook(self, n, cap):
        seen = []

        def hook(supp, bound):
            seen.append((supp, bound))
            return 1

        assert search._dfs(n, [], cap, hook) == (1, 1)
        assert seen == [((0,), cap)]


class TestExactSpectrum:
    def test_two_level_gap_on_the_cube(self):
        report = min_support_exact_spectrum(3, {0, 3})
        assert report.min_support == 4
        assert spectrum(report.witness).sorted_levels == (0, 3)
        assert support_size(report.witness) == 4

    def test_constant_level_forces_full_support(self):
        report = min_support_exact_spectrum(2, {0})
        assert report.min_support == 4
        assert spectrum(report.witness).sorted_levels == (0,)

    def test_all_levels_is_a_point_mass(self):
        report = min_support_exact_spectrum(2, {0, 1, 2})
        assert report.min_support == 1

    def test_twist_symmetric_queries_agree(self):
        # the parity twist carries spectrum {0,3} to {1,4} bijectively on H(4)
        c = min_support_exact_spectrum(4, {0, 3}).min_support
        d = min_support_exact_spectrum(4, {1, 4}).min_support
        assert c == d == 8

    def test_size_cap_reports_no_witness(self):
        report = min_support_exact_spectrum(3, {0, 3}, max_size=3)
        assert report.min_support is None
        assert report.witness is None
        assert "no witness" in report.notes[0]

    def test_size_cap_applies_to_the_point_mass(self):
        assert min_support_exact_spectrum(2, {0, 1, 2}, max_size=1).min_support == 1
        assert min_support_exact_spectrum(2, {0, 1, 2}, max_size=0).min_support is None

    def test_validation(self):
        with pytest.raises(ValueError):
            min_support_exact_spectrum(3, set())
        with pytest.raises(ValueError):
            min_support_exact_spectrum(3, {4})

    @pytest.mark.parametrize("levels", [[1.0], [True], ["1"]], ids=["float", "bool", "str"])
    def test_rejects_non_int_levels(self, levels):
        with pytest.raises(ValueError, match=re.escape(f"level must be an int in [0, 3], got {levels[0]!r}")):
            min_support_exact_spectrum(3, levels)

    @pytest.mark.parametrize("max_size", [-1, 2.5, True, "3"], ids=["negative", "float", "bool", "str"])
    def test_rejects_bad_size_cap(self, max_size):
        with pytest.raises(ValueError, match=re.escape(f"max_size must be an int >= 0, got {max_size!r}")):
            min_support_exact_spectrum(3, [1], max_size=max_size)


class TestCanonicalForm:
    def test_scaling_absorbed(self):
        f = tensor(phi(1), phi(2))
        for c in (Fraction(7), Fraction(-2, 3)):
            assert canonical_form(f.scale(c)).values == canonical_form(f).values

    def test_group_absorbed(self, rng):
        f = tensor(tensor(phi(1), phi(2)), point_mass(1))
        base = canonical_form(f)
        for _ in range(100):
            perm = list(range(4))
            rng.shuffle(perm)
            v = rng.randrange(16)
            c = Fraction(rng.choice([x for x in range(-5, 6) if x]), rng.randrange(1, 4))
            vals = [Fraction(0)] * 16
            for x in range(16):
                y = 0
                for bit in range(4):
                    if x >> bit & 1:
                        y |= 1 << perm[bit]
                vals[x] = c * f.values[y ^ v]
            assert canonical_form(make_function(4, vals)).values == base.values

    def test_idempotent(self):
        cf = canonical_form(tensor(phi(2), phi(2)))
        assert canonical_form(cf) == cf

    def test_distinct_blueprints_distinct_forms(self):
        a = canonical_form(build(Blueprint(LOWER, (), (2, 2), 0, 4)))
        b = canonical_form(build(Blueprint(LOWER, (1,), (2,), 1, 4)))
        assert a.values != b.values

    def test_rejects_zero_and_large_n(self):
        with pytest.raises(ValueError):
            canonical_form(make_function(1, [0, 0]))
        with pytest.raises(ValueError):
            canonical_form(point_mass(9))

    def test_matches_full_sweep_oracle_on_random_functions(self, rng):
        def value():
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))

        for k in range(1000):
            n = rng.choice((0, 1, 2, 3, 3, 4, 4, 4, 4, 5))
            size = 1 << n
            kind = "constant" if k % 40 == 2 else ("sparse", "full", "mixed", "mixed")[k % 4]
            if kind == "sparse":
                vals = [0] * size
                for x in rng.sample(range(size), rng.randint(1, min(4, size))):
                    vals[x] = value()
            elif kind == "full":
                vals = [value() for _ in range(size)]
            elif kind == "constant":
                vals = [value()] * size
            else:  # zeros, repeated values, both signs and fractions
                vals = [rng.choice([0, 0, 1, -1, Fraction(1, 2), Fraction(-5, 3)]) for _ in range(size)]
                if not any(vals):
                    vals[rng.randrange(size)] = value()
            f = make_function(n, vals)
            assert canonical_form(f) == naive_canonical_form(f), f

    @pytest.mark.parametrize("kind", ["repeated", "distinct"])
    def test_matches_full_sweep_oracle_on_mixed_spellings(self, rng, kind):
        for n in [*range(5)] * 3:
            vals = mixed_table(rng, n, kind)
            f = make_function(n, vals)
            if naive_is_zero(vals):
                with pytest.raises(ValueError, match="nonzero function"):
                    canonical_form(f)
            else:
                assert canonical_form(f) == naive_canonical_form(f), vals

    def test_matches_full_sweep_oracle_on_blueprints(self):
        bands = [(n, i, j) for n in range(1, 6) for i in range(n + 1) for j in range(i, n + 1)]
        functions = [build(bp) for band in bands + [(6, 3, 4)] for bp in enumerate_blueprints(*band)]
        assert sum(f.n == 6 for f in functions) == 2
        for f in functions:
            assert canonical_form(f) == naive_canonical_form(f), f

    @staticmethod
    def span(basis, offset):
        codes = {0}
        for b in basis:
            codes |= {x ^ b for x in codes}
        return [x ^ offset for x in codes]

    @staticmethod
    def cells(n, codes):
        """The number of distinct columns over the support translated to 0."""
        return len({tuple((x ^ codes[0]) >> c & 1 for x in codes) for c in range(n)})

    def test_matches_full_sweep_oracle_on_equal_and_complementary_columns(self, rng):
        supports = []
        for n in range(2, 6):
            full = (1 << n) - 1
            supports += [(n, [0, full]), (n, [5 % (1 << n), 5 % (1 << n) ^ full])]  # all columns in one cell
            for _ in range(12):
                offset = rng.randrange(1 << n)
                supports.append((n, [offset]))  # a point mass
                coords = rng.sample(range(n), rng.randint(1, n - 1))
                supports.append((n, self.span([1 << c for c in coords], offset)))
                basis = []
                for _ in range(rng.randint(1, n - 1)):
                    basis.append(rng.choice([v for v in range(1, 1 << n) if v not in self.span(basis, 0)]))
                supports.append((n, self.span(basis, offset)))
        assert sum(self.cells(n, codes) < n for n, codes in supports) > len(supports) * 2 // 3
        for n, codes in supports:
            pool = [Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7])) for _ in range(3)]
            vals = [0] * (1 << n)
            for x in codes:
                vals[x] = rng.choice(pool)
            f = make_function(n, vals)
            assert canonical_form(f) == naive_canonical_form(f), f

    @staticmethod
    def moved(n, codes, vec, perm, shift):
        """The support and values of f o pi, pi a coordinate permutation plus translation."""
        image = {sum(1 << perm[c] for c in range(n) if x >> c & 1) ^ shift: v for x, v in zip(codes, vec)}
        return sorted(image), [image[y] for y in sorted(image)]

    def test_int_tables_match_the_oracle_on_primitive_vectors(self, rng):
        cases = []
        for _ in range(60):
            n = rng.choice((1, 2, 3, 3, 4, 4, 5))
            codes = sorted(rng.sample(range(1 << n), rng.randint(1, min(6, 1 << n))))
            vec = [rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4]) for _ in codes]
            g = math.gcd(*vec)
            vec = [v // g for v in vec]
            perm = rng.sample(range(n), n)
            cases += [(n, codes, vec), (n, codes, [-v for v in vec]),
                      (n, *self.moved(n, codes, vec, perm, rng.randrange(1 << n)))]
        results = []
        for n, codes, vec in cases:
            values = [0] * (1 << n)
            for x, v in zip(codes, vec):
                values[x] = v
            form = canonical_form(make_function(n, values))
            oracle = naive_canonical_form(make_function(n, values))
            assert form.values == oracle.values, (n, codes, vec)
            results.append((n, form, oracle.values))
        outcomes = set()
        for (n, form, oracle), (m, other, other_oracle) in combinations(results, 2):
            if n == m:
                assert (form == other) == (oracle == other_oracle)
                outcomes.add(oracle == other_oracle)
        assert outcomes == {True, False}

    def test_aut_matches_the_stabiliser_oracle_on_blueprints(self):
        # orbit-stabiliser: a class of 2^n * n! / |Stab| functions, each on B
        # vertices, has n! * B / |Stab| supports through 0
        blueprints = {build(bp): bp for n in range(1, 6) for i in range(n + 1) for j in range(i, n + 1)
                      for bp in enumerate_blueprints(n, i, j)}
        assert len(blueprints) == 75
        for f, bp in blueprints.items():
            assert bp.placements * naive_stabiliser_order(f) == math.factorial(f.n) * bp.support_size, bp

    @pytest.mark.parametrize("n,i,j,witnesses,classes", [
        (6, 2, 6, 301, 9),
        (7, 2, 7, 966, 12),
    ])
    def test_witnesses_above_n5_give_the_blueprint_forms(self, n, i, j, witnesses, classes):
        rows, size, supports, _ = search._scan_supports(n, i, j, True, "extended")
        assert size == max(1 << i, 1 << (n - j)) and len(supports) == witnesses
        forms = {canonical_form(search._witness(n, rows, supp)).values for supp in supports}
        blueprint_forms = [canonical_form(build(bp)).values for bp in enumerate_blueprints(n, i, j)]
        assert len(set(blueprint_forms)) == len(blueprint_forms) == classes
        assert forms == set(blueprint_forms)


def walk_leaves(n, codes, cut=True):
    """The leaves _arrangement_walk reaches, in order: (moved codes, max-min, sorted translations).

    With cut the bound is each leaf's max-min, as in search.canonical_form;
    without it the bound stays -1 and every distinct arrangement is a leaf.
    """
    leaves = []

    def leaf(moved, top, leads):
        leaves.append((tuple(moved), top, sorted(moved[k] ^ top for k in leads)))
        return top if cut else -1

    search._arrangement_walk(n, codes, leaf)
    return leaves


def max_min_oracle(codes, nbits):
    """max over w < 2^nbits of min(t ^ w for t in codes), and every w reaching it, by brute force."""
    reach = {w: min(t ^ w for t in codes) for w in range(1 << nbits)}
    top = max(reach.values())
    return top, sorted(w for w, v in reach.items() if v == top)


@cache
def set_max_min(nbits, codes):
    """max_min_oracle for a frozenset of codes, cached: a code set recurs under many permutations."""
    return max_min_oracle(codes, nbits)


@cache
def permuted_codes(n):
    """For each coordinate permutation of H(n), the image of every code."""
    return [[sum(1 << perm[c] for c in range(n) if x >> c & 1) for x in range(1 << n)]
            for perm in permutations(range(n))]


class TestDistinctPermutations:
    """Uncut, _arrangement_walk visits every distinct arrangement of the columns once."""

    @staticmethod
    def check(items):
        # the column at coordinate c is 1 at code r + 1 alone, r the rank of items[c]
        ranks = sorted(set(items))
        codes = [0] + [sum(1 << c for c, v in enumerate(items) if v == r) for r in ranks]
        got = [tuple(next(r for k, r in enumerate(ranks, 1) if moved[k] >> p & 1)
                     for p in reversed(range(len(items))))
               for moved, _, _ in walk_leaves(len(items), codes, cut=False)]
        count = math.factorial(len(items))
        for m in Counter(items).values():
            count //= math.factorial(m)
        assert len(got) == len(set(got)) == count
        assert set(got) == set(permutations(items))
        assert got == sorted(got)  # read from the top bit down

    @pytest.mark.parametrize("items", [(), (7,), (1, 1, 1), (2, 1, 2, 1), (3, 1, 2, 1, 3, 3),
                                       tuple(range(6)), (0, 0, 1, 1, 2, 2, 2, 5)], ids=repr)
    def test_yields_every_distinct_ordering_once(self, items):
        self.check(items)

    def test_random_multisets(self, rng):
        for _ in range(100):
            self.check(tuple(rng.randrange(4) for _ in range(rng.randint(0, 7))))


class TestMaxMinXor:
    """The max-min and the translations reaching it at the leaves of _arrangement_walk."""

    def test_matches_brute_force(self, rng):
        for _ in range(500):
            nbits = rng.randint(0, 6)
            codes = rng.sample(range(1 << nbits), rng.randint(1, 1 << nbits))
            leaves = {moved: (top, ws) for moved, top, ws in walk_leaves(nbits, codes, cut=False)}
            assert leaves[tuple(codes)] == max_min_oracle(codes, nbits), codes  # the identity arrangement
            if nbits <= 3:
                assert all(leaves[m] == max_min_oracle(m, nbits) for m in leaves), codes

    def test_no_bits(self):
        assert walk_leaves(0, [0]) == [((0,), 0, [0])]

    def test_all_codes_let_every_translation_reach_zero(self):
        for nbits in range(5):
            leaves = walk_leaves(nbits, list(range(1 << nbits)), cut=False)
            assert len(leaves) == math.factorial(nbits)
            assert all(leaf[1:] == (0, list(range(1 << nbits))) for leaf in leaves)


class TestArrangementWalk:
    @staticmethod
    def check_cut(n, codes):
        """The cut walk against every coordinate permutation and translation of codes."""
        images = {tuple(image[x] for x in codes) for image in permuted_codes(n)}
        reach = {moved: set_max_min(n, frozenset(moved)) for moved in images}
        top = max(r[0] for r in reach.values())
        leaves = walk_leaves(n, codes)
        assert len({moved for moved, _, _ in leaves}) == len(leaves)
        tops = [t for _, t, _ in leaves]
        assert tops == sorted(tops) and tops[-1] == top  # a leaf below the bound is never reached
        best = {moved: (t, ws) for moved, t, ws in leaves if t == top}
        assert best == {moved: r for moved, r in reach.items() if r[0] == top}, (n, codes)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, pytest.param(4, marks=pytest.mark.skipif(
        not EXTENDED, reason="set CUBESPEC_EXTENDED=1 for the 65,535 supports at n=4"))])
    def test_cut_keeps_exactly_the_best_arrangements_of_every_support(self, n):
        for subset in range(1, 1 << (1 << n)):
            self.check_cut(n, [x for x in range(1 << n) if subset >> x & 1])

    @pytest.mark.parametrize("n,count", [(4, 400), (5, 60)])
    def test_cut_keeps_exactly_the_best_arrangements_of_random_supports(self, rng, n, count):
        for _ in range(count):
            size = rng.choice([2, 3, 4, 4, 5, 6, 8, 8, 12, 1 << n - 1, 1 << n])
            self.check_cut(n, sorted(rng.sample(range(1 << n), size)))


class TestEquivalent:
    def test_scaled_coordinate_swap(self):
        f = phi(2)
        g = make_function(2, [-3, 0, 0, 3])
        assert equivalent(f, g)

    def test_sign_pattern_blocks_equivalence(self):
        # translation can move {00,11} onto {01,10} but flips one sign,
        # and scaling cannot repair 1,1 against 1,-1
        assert not equivalent(phi(2), make_function(2, [1, 0, 0, 1]))

    def test_factor_reordering(self):
        a = build(Blueprint(LOWER, (1,), (2,), 1, 4))
        b = tensor(tensor(point_mass(1), phi(2)), phi(1))
        assert equivalent(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            equivalent(phi(2), phi(3))

    def test_plain_multiples_share_the_canonical_domain(self):
        # equivalent is decided by canonical forms alone, so a plain multiple raises too
        f = point_mass(9)
        with pytest.raises(ValueError, match=r"^canonical_form sweeps the full group only for n <= 8$"):
            equivalent(f, f.scale(2))

    def test_zero_function_is_rejected_by_canonical_form(self):
        with pytest.raises(ValueError, match=r"^canonical_form needs a nonzero function$"):
            equivalent(phi(2), make_function(2, [0, 0, 0, 0]))


class TestVerifyClassification:
    def test_two_classes_for_the_four_band(self):
        report = verify_classification(4, 2, 3)
        assert report.ok
        assert len(report.classes_found) == 2
        assert all(idx is not None for _, idx in report.matched_blueprints)
        assert report.min_support == 4

    def test_three_classes_for_the_three_band(self):
        report = verify_classification(3, 0, 2)
        assert report.ok
        assert len(report.classes_found) == 3

    def test_point_mass_band(self):
        report = verify_classification(3, 0, 3)
        assert report.ok
        assert len(report.classes_found) == 1
        assert report.min_support == 1

    def test_kernel_dimension_reported_as_one(self):
        report = verify_classification(4, 1, 3)
        assert report.ok
        assert not any("kernel dimension" in note for note in report.notes)

    @pytest.mark.parametrize("n,i,j", SMALL_BANDS)
    def test_every_minimal_support_carries_one_function(self, n, i, j):
        # a minimal dependent support is a circuit, so its kernel is one line
        rows, _, supports, _ = search._scan_supports(n, i, j, False, "extended")
        assert all(len(_kernel_basis(rows, supp)) == 1 for supp in supports)

    # minimal supports through 0 counted by the extended scan (n = 6 and 7 also
    # by test_witnesses_above_n5_give_the_blueprint_forms); no scan runs here
    @pytest.mark.parametrize("n,i,j,supports", [
        (6, 2, 6, 301), (7, 2, 7, 966), (8, 2, 8, 3025), (8, 2, 6, 693), (9, 2, 9, 9330), (9, 2, 7, 2205),
    ])
    def test_placements_sum_to_the_measured_support_counts(self, n, i, j, supports):
        assert sum(bp.placements for bp in enumerate_blueprints(n, i, j)) == supports

    # the small bands, the nine bands with bound <= 4 at n = 6 and 7, and
    # behind CUBESPEC_EXTENDED the n = 5 bands with bound 8 and the nine at n = 8
    @pytest.mark.parametrize("n,i,j", SMALL_BANDS + [
        (n, i, j) for n in (6, 7) for i in range(3) for j in range(n - 2, n + 1)
    ] + [
        pytest.param(*band, marks=pytest.mark.skipif(not EXTENDED, reason="set CUBESPEC_EXTENDED=1 for these bands"))
        for band in [(5, i, j) for i in range(4) for j in range(i, 6) if max(1 << i, 1 << 5 - j) == 8]
        + [(8, i, j) for i in range(3) for j in range(6, 9)]
    ])
    def test_per_witness_fallback_gives_the_same_report(self, monkeypatch, kernel_calls, n, i, j):
        fast = verify_classification(n, i, j, extended=True)
        assert len(kernel_calls) == 1
        kernel_calls.clear()
        monkeypatch.setattr(search, "in_band", lambda f, i, j: False)  # fails check (a)
        slow = verify_classification(n, i, j, extended=True)
        assert len(kernel_calls) == len(search._scan_supports(n, i, j, True, "extended")[2])
        assert slow == fast

    @pytest.mark.skipif(not EXTENDED, reason="set CUBESPEC_EXTENDED=1 for the n=5 bound-16 and -32 bands")
    @pytest.mark.parametrize("i,j", [(0, 0), (5, 5), (1, 1), (4, 4), (0, 1), (4, 5)])
    def test_n5_bands_with_bound_16_or_32(self, kernel_calls, i, j):
        report = verify_classification(5, i, j)
        assert len(kernel_calls) == 1  # check (c) held: the orbit-count path ran
        assert report.ok, report.notes
        assert report.min_support == max(1 << i, 1 << 5 - j)
        assert len(report.classes_found) == len(enumerate_blueprints(5, i, j))

    def test_limit_error_names_the_keyword(self):
        with pytest.raises(ValueError, match=r"beyond n=5 needs extended=True"):
            verify_classification(6, 2, 4)

    # On a dense input the full-group sweep is up to n! arrangements times
    # 2^n translations, so the lift stops at n = 8, before any constraint
    # row is built.
    @pytest.mark.parametrize("n", [9, 25])
    def test_lifted_gate_refuses_n_above_the_canonical_limit(self, no_scan, n):
        with pytest.raises(ValueError, match=re.escape(f"n must be an int in [0, 8], got {n}")):
            verify_classification(n, 2, n, extended=True)

    def test_extended_flag_gates_n5(self):
        """extended lifts the exhaustive gate at n = 6, as unsafe does for min_support."""
        with pytest.raises(ValueError):
            verify_classification(6, 3, 4)
        report = verify_classification(6, 2, 4, extended=True)
        assert report.ok and len(report.classes_found) == 2

    # Band [2, 3] at n = 4 has two classes, matched by blueprints
    # a = ((), (2, 2), 0) at class 1 and b = ((1,), (2,), 1) at class 0;
    # c = ((1, 1), (), 2) from band [2, 4] lies outside the band.  So does
    # u = UPPER ((1,), (2,), 1), with levels {1, 2}, whose 12 placements equal
    # b's, so only check (a) keeps it off the orbit-count path.  e = ((1, 1),
    # (2,), 0) has level 3 but support 8, and 6 placements against a's 3, so
    # checks (a) and (c) both fail; test_oversized_blueprint_alone isolates size.
    @pytest.mark.parametrize("pick,notes,indices", [
        ("a", ("2 search classes vs 1 blueprints",), [1]),
        ("abb", ("distinct blueprints collided in canonical form",
                 "2 search classes vs 3 blueprints"), [1, 0, 0]),
        ("ac", ("blueprint LOWER odd=(1, 1) even=() r=2 matches no search class",), [1, None]),
        ("caa", ("blueprint LOWER odd=(1, 1) even=() r=2 matches no search class",
                 "distinct blueprints collided in canonical form",
                 "2 search classes vs 3 blueprints"), [None, 1, 1]),
        ("au", ("blueprint UPPER odd=(1,) even=(2,) r=1 matches no search class",), [1, None]),
        ("eb", ("blueprint LOWER odd=(1, 1) even=(2,) r=0 matches no search class",), [None, 0]),
    ], ids=["dropped", "duplicated", "foreign", "all-three", "out-of-band", "oversized"])
    def test_blueprint_mismatch_notes(self, monkeypatch, pick, notes, indices):
        a, b = enumerate_blueprints(4, 2, 3)
        named = {"a": a, "b": b, "c": enumerate_blueprints(4, 2, 4)[2],
                 "u": Blueprint(UPPER, (1,), (2,), 1, 4), "e": Blueprint(LOWER, (1, 1), (2,), 0, 4)}
        assert named["c"].odd_parts == (1, 1) and named["c"].remainder == 2
        monkeypatch.setattr(search, "enumerate_blueprints", lambda n, i, j: [named[k] for k in pick])
        report = verify_classification(4, 2, 3)
        assert report.ok is False
        assert report.notes == notes
        assert [idx for _, idx in report.matched_blueprints] == indices
        assert [bp for bp, _ in report.matched_blueprints] == [named[k] for k in pick]
        assert len(report.classes_found) == 2 and report.min_support == 4

    def test_oversized_blueprint_alone(self, monkeypatch, kernel_calls):
        # band [0, 2] at n = 3: UPPER ((1,), (2,), 0) has support 4 against the
        # minimum 2 but levels {1} and the 3 placements of ((), (2,), 1), which it replaces
        bps = enumerate_blueprints(3, 0, 2)
        oversized = Blueprint(UPPER, (1,), (2,), 0, 3)
        assert bps[0] == Blueprint(UPPER, (), (2,), 1, 3) and bps[0].placements == oversized.placements == 3
        monkeypatch.setattr(search, "enumerate_blueprints", lambda n, i, j: [oversized, *bps[1:]])
        report = verify_classification(3, 0, 2)
        assert report.ok is False and report.min_support == 2
        assert report.notes == ("blueprint UPPER odd=(1,) even=(2,) r=0 matches no search class",)
        assert len(kernel_calls) == len(search._scan_supports(3, 0, 2, False, "extended")[2])
