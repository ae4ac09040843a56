import re
from fractions import Fraction

import pytest

from cubespec import constructions
from cubespec import (
    LOWER,
    UPPER,
    Blueprint,
    blueprint_spectrum,
    build,
    canonical_form,
    single_level_blueprint,
    enumerate_blueprints,
    in_band,
    is_progression_spectrum,
    parity_twist,
    phi,
    point_mass,
    psi,
    spectrum,
    support_size,
    tensor,
)


class TestBlocks:
    def test_sign_pair(self):
        assert list(phi(1).values) == [1, -1]
        assert list(phi(2).values) == [1, 0, 0, -1]
        with pytest.raises(ValueError):
            phi(0)

    def test_flat_pair(self):
        f = psi(3)
        assert {x for x, v in enumerate(f.values) if v != 0} == {0, 7}
        assert f.values[0] == f.values[7] == 1
        with pytest.raises(ValueError):
            psi(0)

    def test_point_mass(self):
        assert list(point_mass(2).values) == [1, 0, 0, 0]
        assert list(point_mass(0).values) == [1]
        with pytest.raises(ValueError):
            point_mass(-1)

    @pytest.mark.parametrize("block,k,case", [
        (phi, 0, "phi needs k >= 1, got 0"), (psi, -2, "psi needs k >= 1, got -2"),
        (point_mass, -1, "point_mass needs k >= 0, got -1"),
        (phi, 25, "block size 25 exceeds the dimension cap 24"),
        (point_mass, 25, "block size 25 exceeds the dimension cap 24"),
        (phi, 2.0, "phi needs k >= 1, got 2.0"), (psi, True, "psi needs k >= 1, got True"),
        (point_mass, "1", "point_mass needs k >= 0, got '1'"),
    ])
    def test_size_errors(self, block, k, case):
        # case describes the violation; every block reports it in the int rule's one message
        k_min = 0 if block is point_mass else 1
        message = f"{block.__name__} size must be an int in [{k_min}, 24], got {k!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            block(k)

    def test_tables_hold_fractions(self):
        for k in range(1, 6):
            top = (1 << k) - 1
            for f, supp in ((phi(k), [0, top]), (psi(k), [0, top]), (point_mass(k), [0])):
                assert len(f.values) == 1 << k and all(type(v) is Fraction for v in f.values)
                assert [x for x, v in enumerate(f.values) if v] == supp


class TestBlueprint:
    def test_parts_stored_descending(self):
        bp = Blueprint(LOWER, (1, 3), (2, 4), 0, 10)
        assert bp.odd_parts == (3, 1)
        assert bp.even_parts == (4, 2)
        assert bp.k == 2 and bp.ell == 2
        assert bp.support_size == 16

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            Blueprint(LOWER, (2,), (), 0, 2)  # even number among odd parts
        with pytest.raises(ValueError):
            Blueprint(LOWER, (), (3,), 0, 3)  # odd number among even parts
        with pytest.raises(ValueError):
            Blueprint(LOWER, (1,), (), 0, 3)  # sums to 1, not 3
        with pytest.raises(ValueError):
            Blueprint("MIDDLE", (), (), 2, 2)

    @pytest.mark.parametrize("odd,even,r,n", [
        ((1.0,), (), 0, 1), ((True,), (), 0, 1), ((), (2.0,), 0, 2), ((), (Fraction(2),), 0, 2),
        ((1,), (), True, 2), ((1,), (), 1.0, 2), ((1,), (), 0, True), ((1,), (), 0, 1.0),
        ((1, "3"), (), 0, 4), ((3, 1.0), (), 0, 4),
    ], ids=repr)
    def test_rejects_non_int_fields_before_sorting(self, odd, even, r, n):
        bad = next(v for v in (*odd, *even, r, n) if type(v) is not int)
        message = rf"^(odd part|even part|remainder|n) must be an int >= \d, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            Blueprint(LOWER, odd, even, r, n)


class TestBuild:
    def test_two_even_blocks(self):
        bp = Blueprint(LOWER, (), (2, 2), 0, 4)
        f = build(bp)
        assert f.values == tensor(phi(2), phi(2)).values
        assert support_size(f) == 4

    def test_mixed_partition(self):
        bp = Blueprint(LOWER, (1,), (2,), 1, 4)
        f = build(bp)
        assert f.values == tensor(tensor(phi(1), phi(2)), point_mass(1)).values

    def test_flat_block_case(self):
        bp = Blueprint(UPPER, (3,), (), 0, 3)
        assert build(bp).values == psi(3).values

    def test_dimension_is_checked_before_any_block(self, monkeypatch):
        calls = []
        monkeypatch.setattr(constructions, "tensor", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"^dimension must be an int in \[0, 24\], got 25$"):
            build(Blueprint(UPPER, (1,) * 25, (), 0, 25))
        assert calls == []

    def test_support_size_matches_block_count(self):
        for n in range(1, 7):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    for bp in enumerate_blueprints(n, i, j):
                        assert support_size(build(bp)) == bp.support_size


class TestBlueprintSpectrum:
    def test_closed_forms(self):
        assert blueprint_spectrum(Blueprint(LOWER, (), (2, 2), 0, 4)).sorted_levels == (2,)
        assert blueprint_spectrum(Blueprint(LOWER, (1,), (2,), 1, 4)).sorted_levels == (2, 3)
        assert blueprint_spectrum(Blueprint(UPPER, (3,), (), 0, 3)).sorted_levels == (0, 2)

    def test_matches_built_function(self):
        for n in range(0, 7):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    for bp in enumerate_blueprints(n, i, j):
                        assert spectrum(build(bp)).levels == blueprint_spectrum(bp).levels

    def test_band_membership_of_builds(self):
        for n in range(1, 7):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    for bp in enumerate_blueprints(n, i, j):
                        assert in_band(build(bp), i, j)


class TestEnumerate:
    def test_two_partitions_of_four(self):
        bps = enumerate_blueprints(4, 2, 3)
        parts = [(bp.odd_parts, bp.even_parts, bp.remainder) for bp in bps]
        assert parts == [((), (2, 2), 0), ((1,), (2,), 1)]
        assert all(bp.case == LOWER for bp in bps)

    def test_three_partitions_of_three(self):
        bps = enumerate_blueprints(3, 0, 2)
        parts = {(bp.odd_parts, bp.even_parts, bp.remainder) for bp in bps}
        assert parts == {((), (2,), 1), ((3,), (), 0), ((1,), (), 2)}
        assert all(bp.case == UPPER for bp in bps)

    def test_full_band_is_a_point_mass(self):
        for n in range(0, 6):
            bps = enumerate_blueprints(n, 0, n)
            assert len(bps) == 1
            assert bps[0].k == 0 and bps[0].ell == 0 and bps[0].remainder == n

    def test_no_duplicates_and_constraints(self):
        for n in range(1, 8):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    bps = enumerate_blueprints(n, i, j)
                    keys = {(bp.case, bp.odd_parts, bp.even_parts, bp.remainder) for bp in bps}
                    assert len(keys) == len(bps)
                    for bp in bps:
                        if i + j >= n:
                            assert bp.case == LOWER
                            assert bp.k + bp.ell == i and bp.ell >= n - j
                        else:
                            assert bp.case == UPPER
                            assert bp.k + bp.ell == n - j and bp.ell >= i

    def test_boundary_band_agrees_with_mirrored_form(self):
        # when i + j = n the two characterizations coincide part for part,
        # and the mirrored builds are equivalent class by class
        for n in range(1, 6):
            for i in range(n + 1):
                j = n - i
                if j < i:
                    continue
                lower = enumerate_blueprints(n, i, j)
                assert all(bp.case == LOWER for bp in lower)
                for bp in lower:
                    assert bp.k == 0  # only even parts survive on the boundary
                    mirrored = Blueprint(UPPER, bp.odd_parts, bp.even_parts, bp.remainder, n)
                    assert canonical_form(build(mirrored)).values == canonical_form(build(bp)).values

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            enumerate_blueprints(3, 2, 1)


class TestSingleLevelBlueprint:
    def test_examples(self):
        bp = single_level_blueprint(4, 3)
        assert (bp.case, bp.odd_parts, bp.even_parts) == (LOWER, (1, 1), (2,))
        bp = single_level_blueprint(4, 1)
        assert (bp.case, bp.odd_parts, bp.even_parts) == (UPPER, (1, 1), (2,))
        bp = single_level_blueprint(2, 1)
        assert (bp.odd_parts, bp.even_parts, bp.remainder) == ((), (2,), 0)

    def test_is_the_unique_single_level_blueprint(self):
        for n in range(1, 7):
            for i in range(n + 1):
                bps = enumerate_blueprints(n, i, i)
                assert len(bps) == 1
                bp = single_level_blueprint(n, i)
                assert (bp.odd_parts, bp.even_parts, bp.remainder) == (
                    bps[0].odd_parts,
                    bps[0].even_parts,
                    bps[0].remainder,
                )

    @pytest.mark.parametrize("n,i", [(2.0, 1), (True, 1), (2, True), (2, 1.0), (2, 3), (2, -1)], ids=repr)
    def test_rejects_what_the_band_check_rejects(self, n, i):
        with pytest.raises(ValueError, match=re.escape(f"invalid band [{i}, {i}] for n={n}")):
            single_level_blueprint(n, i)


class TestProgression:
    def test_examples(self):
        from cubespec import SpectrumSet

        assert is_progression_spectrum(SpectrumSet(3, frozenset({2, 3})), 2, 3, LOWER)
        assert not is_progression_spectrum(SpectrumSet(3, frozenset({0, 3})), 0, 3, LOWER)
        assert is_progression_spectrum(SpectrumSet(5, frozenset({2})), 2, 5, LOWER)
        assert is_progression_spectrum(SpectrumSet(5, frozenset({1, 3, 5})), 0, 5, UPPER)
        assert not is_progression_spectrum(SpectrumSet(5, frozenset({1, 3, 4})), 1, 4, LOWER)

    def test_all_blueprint_spectra_are_progressions(self):
        for n in range(1, 8):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    for bp in enumerate_blueprints(n, i, j):
                        s = blueprint_spectrum(bp)
                        assert is_progression_spectrum(s, i, j, bp.case)

    def test_rejects_empty(self):
        from cubespec import SpectrumSet

        with pytest.raises(ValueError):
            is_progression_spectrum(SpectrumSet(3, frozenset()), 0, 3, LOWER)

    def test_rejects_an_unknown_band_side(self):
        from cubespec import SpectrumSet

        with pytest.raises(ValueError, match=re.escape("band_side must be LOWER or UPPER, got 'MIDDLE'")):
            is_progression_spectrum(SpectrumSet(3, frozenset({1})), 1, 2, "MIDDLE")

    def test_anchor_level_must_be_the_band_end(self):
        from cubespec import SpectrumSet

        # progressions of difference 1 inside the band, anchored one level off
        assert not is_progression_spectrum(SpectrumSet(5, frozenset({2, 3})), 1, 4, LOWER)
        assert not is_progression_spectrum(SpectrumSet(5, frozenset({2, 3})), 1, 4, UPPER)
        assert is_progression_spectrum(SpectrumSet(5, frozenset({1, 2})), 1, 4, LOWER)
        assert is_progression_spectrum(SpectrumSet(5, frozenset({3, 4})), 1, 4, UPPER)


def test_twist_carries_flat_blocks_to_sign_blocks():
    for n in range(1, 7):
        for j in range(n):
            for bp in enumerate_blueprints(n, 0, j):
                mirrored = Blueprint(LOWER, bp.odd_parts, bp.even_parts, bp.remainder, n)
                assert parity_twist(build(bp)).values == build(mirrored).values
