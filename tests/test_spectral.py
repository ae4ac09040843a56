import ast
import inspect
import math
import re
import textwrap
from fractions import Fraction

import pytest

from cubespec import (
    LOWER,
    SpectrumSet,
    character,
    check_eigen_relation,
    constant_function,
    eigenvalue_of_level,
    enumerate_blueprints,
    face_sums_vanish,
    in_band,
    is_progression_spectrum,
    level_project,
    make_function,
    min_support,
    parity_twist,
    phi,
    point_mass,
    psi,
    reduction_check,
    spectrum,
    tensor,
    verify_classification,
    walsh_transform,
    weight,
    zero_function,
)
from cubespec import spectral
from cubespec.spectral import _levels
from conftest import LARGE_PRIME, random_band_function, random_function, random_rational_function
from oracles import (
    minkowski,
    naive_coefficient,
    naive_character,
    naive_eigen_relation,
    naive_level_projection,
    naive_walsh,
    sign,
)


def test_character_values():
    assert character(2, 0).values == (Fraction(1),) * 4
    assert list(character(1, 1).values) == [1, -1]
    assert character(1, 1).values == phi(1).values
    # exponent is the popcount of u AND x
    assert character(3, 0b111).values[0b101] == 1
    with pytest.raises(ValueError):
        character(2, 4)


class TestCharacter:
    def test_every_character_up_to_n8_matches_the_parity_oracle(self):
        for n in range(9):
            for u in range(1 << n):
                assert list(character(n, u).values) == naive_character(n, u), (n, u)

    def test_sampled_characters_n9_to_n14_match_the_parity_oracle(self, rng):
        for n in range(9, 15):
            for u in (0, (1 << n) - 1, *rng.sample(range(1, (1 << n) - 1), 3)):
                assert list(character(n, u).values) == naive_character(n, u), (n, u)

    def test_table_shares_one_fraction_per_value(self, rng):
        for n in (0, 1, 5, 9, 12):
            for u in {0, (1 << n) - 1, rng.randrange(1 << n)}:
                values = character(n, u).values
                assert len({id(v) for v in values}) == len(set(values)) <= 2, (n, u)
                assert all(type(v) is Fraction for v in values)


def test_eigenvalue_of_level():
    assert eigenvalue_of_level(3, 0) == 3
    assert eigenvalue_of_level(3, 3) == -3
    assert eigenvalue_of_level(8, 3) == 2
    with pytest.raises(ValueError):
        eigenvalue_of_level(3, 4)


def test_block_spectra():
    assert spectrum(phi(3)).sorted_levels == (1, 3)
    assert spectrum(psi(3)).sorted_levels == (0, 2)
    assert spectrum(point_mass(2)).sorted_levels == (0, 1, 2)
    assert spectrum(zero_function(3)).levels == frozenset()


def test_spectrum_set_validation():
    with pytest.raises(ValueError):
        SpectrumSet(2, frozenset({3}))


@pytest.mark.parametrize("n", [True, -1, 2.0, "2", None], ids=repr)
def test_spectrum_set_rejects_bad_dimension(n):
    with pytest.raises(ValueError, match=re.escape(f"n must be an int >= 0, got {n!r}")):
        SpectrumSet(n, {1} if n is True else set())


def test_spectrum_set_stores_a_frozenset():
    s = SpectrumSet(3, [1, 3, 1])
    assert s.levels == frozenset({1, 3}) and s.sorted_levels == (1, 3)
    assert hash(s) == hash(SpectrumSet(3, {3, 1}))


@pytest.mark.parametrize("level", [1.0, True, Fraction(1), "1"], ids=["float", "bool", "Fraction", "str"])
def test_spectrum_set_rejects_non_int_levels(level):
    message = re.escape(f"level must be an int in [0, 2], got {level!r}")
    with pytest.raises(ValueError, match=message):
        SpectrumSet(2, frozenset({0, level}))


def test_levels_match_the_fraction_transform_oracle(rng):
    # from n = 8 on, two sampled levels per table keep the O(4^n) oracle cheap
    for n in range(10):
        for k in range(4 if n < 8 else 2):
            f = random_band_function(rng, n, 0, n) if k % 2 else random_rational_function(rng, n)
            d = math.lcm(*(v.denominator for v in f.values))
            levels = _levels([int(v * d) for v in f.values])
            for i in range(n + 1) if n < 8 else rng.sample(range(n + 1), 2):
                present = any(naive_coefficient(f, u) != 0 for u in range(1 << n) if weight(u) == i)
                assert (i in levels) == present
    assert _levels([0] * 8) == frozenset()


class TestLevelProject:
    def test_disjoint_levels_split(self):
        f = phi(1) + constant_function(1, 1)
        assert level_project(f, 1).values == character(1, 1).values
        assert level_project(f, 0).values == constant_function(1, 1).values

    def test_character_is_its_own_projection(self):
        for u in range(8):
            chi = character(3, u)
            assert level_project(chi, weight(u)).values == chi.values

    def test_point_mass_level_two_coefficients(self):
        proj = level_project(point_mass(3), 2)
        fhat = walsh_transform(proj)
        nonzero = {u for u, c in enumerate(fhat.values) if c != 0}
        assert nonzero == {0b011, 0b101, 0b110}

    def test_matches_the_oracle_transforms_on_rational_tables(self, rng):
        # from n = 8 on, two sampled levels keep the O(4^n) oracle cheap
        for n in range(10):
            f = random_rational_function(rng, n)
            for i in range(n + 1) if n < 8 else rng.sample(range(n + 1), 2):
                proj = level_project(f, i)
                assert all(type(v) is Fraction for v in proj.values)
                assert list(proj.values) == naive_level_projection(f, i)

    def test_projections_sum_to_f_and_satisfy_eigen_relation(self, rng):
        f = random_function(rng, 4)
        total = zero_function(4)
        for i in range(5):
            p = level_project(f, i)
            total = total + p
            if not p.is_zero():
                assert check_eigen_relation(p, eigenvalue_of_level(4, i))
        assert total.values == f.values


class TestInBand:
    def test_examples(self):
        assert in_band(tensor(phi(2), phi(2)), 2, 2)
        assert not in_band(phi(3), 2, 3)
        assert in_band(zero_function(2), 0, 0)

    def test_matches_spectrum_containment(self, rng):
        for _ in range(20):
            n = rng.randrange(1, 6)
            i = rng.randrange(0, n + 1)
            j = rng.randrange(i, n + 1)
            f = random_band_function(rng, n, 0, n)
            levels = spectrum(f).levels
            assert in_band(f, i, j) == (levels <= set(range(i, j + 1)))

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            in_band(phi(2), 2, 1)


@pytest.mark.parametrize("i,j", [(2, 1), (-1, 1), (1, 3), (1.0, 2), (True, 2), (0, 2.0)])
def test_every_band_check_gives_one_message(i, j):
    message = f"^invalid band \\[{i}, {j}\\] for n=2$"
    for call in (lambda: in_band(phi(2), i, j), lambda: reduction_check(phi(2), i, j, 1),
                 lambda: enumerate_blueprints(2, i, j), lambda: min_support(2, i, j),
                 lambda: verify_classification(2, i, j)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("n", [2.0, True], ids=repr)
def test_band_check_rejects_a_non_int_dimension(n):
    message = f"^invalid band \\[1, 1\\] for n={n}$"
    for call in (lambda: enumerate_blueprints(n, 1, 1), lambda: min_support(n, 1, 1),
                 lambda: verify_classification(n, 1, 1)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("n,u", [(2.0, 1), (True, 1), (2, True), (2, 1.0), (2, 4), (-1, 0)], ids=repr)
def test_character_rejects_non_int_or_out_of_range_arguments(n, u):
    with pytest.raises(ValueError, match="^(dimension|vertex code)"):
        character(n, u)


@pytest.mark.parametrize("call,args,message", [
    (eigenvalue_of_level, (2.0, 1), "n must be an int >= 0, got 2.0"),
    (eigenvalue_of_level, (2, True), "level must be an int in [0, 2], got True"),
    (face_sums_vanish, (1.0,), "level must be an int in [1, 2], got 1.0"),
    (face_sums_vanish, (True,), "level must be an int in [1, 2], got True"),
    (level_project, (1.0,), "level must be an int in [0, 2], got 1.0"),
    (level_project, (True,), "level must be an int in [0, 2], got True"),
    (is_progression_spectrum, (1.0, 2, LOWER), "invalid band [1.0, 2] for n=3"),
    (zero_function, (2.0,), "dimension must be an int in [0, 24], got 2.0"),
    (constant_function, ("2", 1), "dimension must be an int in [0, 24], got '2'"),
], ids=lambda v: getattr(v, "__name__", None) or repr(v))
def test_levels_and_dimensions_follow_the_int_rule(call, args, message):
    # functions of f take phi(2), is_progression_spectrum a spectrum at n = 3
    first = {face_sums_vanish: (phi(2),), level_project: (phi(2),),
             is_progression_spectrum: (SpectrumSet(3, {1}),)}.get(call, ())
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*first, *args)


class TestEigenRelation:
    @pytest.mark.parametrize("lam", ["1", 0.0, True, Fraction(0), None], ids=repr)
    def test_lambda_follows_the_int_rule(self, lam):
        with pytest.raises(ValueError, match=f"^lambda must be an int, got {re.escape(repr(lam))}$"):
            check_eigen_relation(phi(2), lam)

    def test_any_int_lambda_is_a_question(self):
        # phi(2) lies at level 1, eigenvalue 0; the zero function satisfies every lambda
        assert check_eigen_relation(phi(2), 0)
        for lam in (-(10**30), -3, -1, 1, 3, 10**30):
            assert not check_eigen_relation(phi(2), lam)
            assert check_eigen_relation(zero_function(2), lam)

    def test_characters(self):
        for n in range(1, 7):
            for u in range(1 << n):
                assert check_eigen_relation(character(n, u), n - 2 * weight(u))

    def test_constant_sees_the_degree(self):
        assert check_eigen_relation(constant_function(3, 1), 3)

    def test_mixed_levels_fail(self):
        # at the all-zeros vertex the neighbor sum is 0 while f is 1
        assert not check_eigen_relation(phi(3), 1)

    def test_agrees_with_transform_on_random_combinations(self, rng):
        # five-term single-level combinations, checked both ways
        for _ in range(20):
            n = rng.randrange(1, 7)
            i = rng.randrange(0, n + 1)
            f = random_band_function(rng, n, i, i, max_terms=5)
            assert spectrum(f).levels <= {i}
            assert check_eigen_relation(f, eigenvalue_of_level(n, i))
            other = eigenvalue_of_level(n, i) - 2
            assert f.is_zero() or not check_eigen_relation(f, other)


class TestEigenRelationOracle:
    """check_eigen_relation against Fraction neighbour sums on rational tables.

    n runs over 0..10, so tables below the packing threshold (2^8 entries)
    meet the oracle on their entries and larger ones on packed rows, while
    a LARGE_PRIME denominator makes the scaled entries too wide for a lane.
    TestEigenRelationPaths sends tables down each path on purpose.  The
    perturbed vertices include the first and the last.  From n = 8 on, one
    sampled level per n keeps the O(4^n) oracle cheap.
    """

    @staticmethod
    def single_levels(rng):
        # sums of characters with the oracle's signs, so no library transform is involved
        for n in range(11):
            for i in range(n + 1) if n < 8 else [rng.randrange(n + 1)]:
                masks = [u for u in range(1 << n) if weight(u) == i]
                terms = []
                for u in rng.sample(masks, min(3, len(masks))):
                    den = rng.choice((3, 5, 7, 11, 13, 8, LARGE_PRIME))
                    terms.append((u, Fraction(rng.choice([-1, 1]) * rng.randrange(1, 10), den)))
                table = [sum((c * sign(u, x) for u, c in terms), Fraction(0)) for x in range(1 << n)]
                yield make_function(n, table), n - 2 * i

    def test_single_levels_hold(self, rng):
        for f, lam in self.single_levels(rng):
            assert naive_eigen_relation(f, lam)
            assert check_eigen_relation(f, lam)

    def test_one_perturbed_vertex_fails(self, rng):
        # vertex 0, the last vertex and a random one; on H(0) every table has eigenvalue 0
        for f, lam in self.single_levels(rng):
            size = len(f.values)
            for x in (0, size - 1, rng.randrange(size)) if f.n else ():
                vals = list(f.values)
                vals[x] += Fraction(1, rng.choice((3, 7, 16)))
                g = make_function(f.n, vals)
                assert not naive_eigen_relation(g, lam)
                assert not check_eigen_relation(g, lam)

    def test_wrong_eigenvalue_fails(self, rng):
        for f, lam in self.single_levels(rng):
            for other in (lam - 2, lam + 1):
                assert not naive_eigen_relation(f, other)
                assert not check_eigen_relation(f, other)


class TestEigenRelationPaths:
    """Both paths of check_eigen_relation at the lane edge, with a spy on its stages.

    A table packs for lam when every scaled entry fits a signed
    (64 - m)-bit word, m = (n + |lam|).bit_length(): its stages then run
    on 2^b rows and on 2^a transposed rows (b = n - a, a = n // 2), while
    the entries path runs them once on all 2^n entries.  The perturbed
    vertices are 0, the last vertex and vertices with only low or only
    high index bits set, so a wrong transpose shows.
    """

    @pytest.fixture
    def lengths(self, monkeypatch):
        lengths = []
        stages = spectral._neighbour_stages
        monkeypatch.setattr(spectral, "_neighbour_stages",
                            lambda vals, sums: lengths.append(len(vals)) or stages(vals, sums))
        return lengths

    @staticmethod
    def ask(lengths, f, lam, packed):
        lengths.clear()
        answer = check_eigen_relation(f, lam)
        a = f.n // 2
        assert lengths == ([1 << (f.n - a), 1 << a] if packed else [1 << f.n]), (lam, lengths)
        return answer

    @pytest.mark.parametrize("n", [8, 11, 14])
    def test_lane_edge(self, rng, lengths, n):
        size, low = 1 << n, 1 << n // 2
        vertices = (0, size - 1, rng.randrange(1, low), rng.randrange(1, size // low) * low)
        for i in sorted({0, 1, n // 2, n - 1, n}):
            lam = n - 2 * i
            top = 1 << 63 - (n + abs(lam)).bit_length()
            u = rng.choice([x for x in range(size) if weight(x) == i])
            chi = [sign(u, x) for x in range(size)]
            # E * chi_u packs for E = 2^(63-m) - 1, not for 2^(63-m) nor one bit more
            for edge, packed in ((top - 1, True), (top, False), (2 * top - 1, False)):
                table = [edge * s for s in chi]
                assert self.ask(lengths, make_function(n, table), lam, packed)
                for x in vertices:
                    nudged = list(table)
                    nudged[x] -= chi[x]  # towards 0, so the path stays the same
                    assert not self.ask(lengths, make_function(n, nudged), lam, packed), x
        # -2^(63-m) packs, one less does not: the constant at level 0
        top = 1 << 63 - (2 * n).bit_length()
        assert self.ask(lengths, constant_function(n, -top), n, True)
        assert self.ask(lengths, constant_function(n, -top - 1), n, False)

    @pytest.mark.parametrize("lam", [1 << 62, -(1 << 62), (1 << 63) - 9, 1 << 63, -(1 << 100)], ids=hex)
    def test_huge_lambda_fails_unless_zero(self, rng, lengths, lam):
        # at margin 63 only entries in {-1, 0} pack; a margin above 63 never does
        n = 8
        packs = (n + abs(lam)).bit_length() <= 63
        for f in (character(n, rng.randrange(1 << n)), random_function(rng, n)):
            assert not self.ask(lengths, f, lam, False)
        assert not self.ask(lengths, make_function(n, [-(x & 1) for x in range(1 << n)]), lam, packs)
        assert self.ask(lengths, zero_function(n), lam, packs)


def test_eigen_relation_does_not_use_the_transform():
    # the workloads and the tests use it to check transform results independently
    names = set()
    for func in (check_eigen_relation, spectral._neighbour_stages):
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert {"_int_table", "_neighbour_stages"} <= names
    assert names.isdisjoint({"_butterfly", "_stages", "_walsh_stage", "walsh_transform", "inverse_walsh",
                             "_levels"})


class TestReduction:
    def test_random_band_functions(self, rng):
        for _ in range(20):
            n = rng.randrange(1, 6)
            i = rng.randrange(0, n + 1)
            j = rng.randrange(i, n + 1)
            f = random_band_function(rng, n, i, j)
            r = rng.randrange(1, n + 1)
            assert reduction_check(f, i, j, r)

    def test_top_level_character_by_hand(self):
        assert reduction_check(character(2, 0b11), 2, 2, 1)

    def test_zero_function(self):
        assert reduction_check(zero_function(3), 1, 2, 2)


def test_spectrum_and_in_band_match_the_fraction_transform_oracle(rng):
    # Both test the integer coefficients of the scaled table against zero;
    # the oracle tests the Fraction double-sum transform.
    for k in range(60):
        n = rng.randrange(1, 6)
        f = random_band_function(rng, n, 0, n) if k % 2 else random_rational_function(rng, n)
        coeffs = list(enumerate(naive_walsh(f).values))
        assert spectrum(f).levels == {weight(u) for u, c in coeffs if c != 0}
        i = rng.randrange(n + 1)
        j = rng.randrange(i, n + 1)
        assert in_band(f, i, j) == all(c == 0 for u, c in coeffs if not i <= weight(u) <= j)


def test_spectrum_additivity(rng):
    for _ in range(30):
        n1 = rng.randrange(1, 5)
        n2 = rng.randrange(1, 5)
        f1 = random_band_function(rng, n1, 0, n1)
        f2 = random_band_function(rng, n2, 0, n2)
        got = spectrum(tensor(f1, f2)).levels
        assert got == minkowski(spectrum(f1).levels, spectrum(f2).levels)


def test_twist_reflects_spectrum(rng):
    assert spectrum(parity_twist(point_mass(2))).sorted_levels == (0, 1, 2)
    for _ in range(20):
        n = rng.randrange(1, 7)
        f = random_band_function(rng, n, 0, n)
        reflected = frozenset(n - s for s in spectrum(f).levels)
        assert spectrum(parity_twist(f)).levels == reflected


def test_interval_function_spectrum_example():
    f = make_function(1, [1, 0])
    assert spectrum(f).sorted_levels == (0, 1)
