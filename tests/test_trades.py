import inspect
import re
from collections import Counter
from fractions import Fraction

import pytest

from cubespec import (
    AffineSubspace,
    Blueprint,
    LOWER,
    TradePair,
    anf_degree,
    build,
    character,
    constant_function,
    detect_affine,
    enumerate_blueprints,
    face_sums_vanish,
    has_disjoint_support_basis,
    in_band,
    is_trade,
    level_project,
    make_function,
    phi,
    point_mass,
    psi,
    sign_split,
    single_level_blueprint,
    split_subspace,
    support,
    tensor,
    three_values_check,
    zero_function,
)
from conftest import SPELLINGS, mixed_table, random_band_function, random_function
from oracles import (
    faces,
    naive_anf_degree,
    naive_is_trade,
    naive_is_zero,
    naive_is_zero_one,
    naive_magnitudes,
    naive_members,
    naive_pairwise_disjoint,
    naive_parity_split,
    naive_sign_split,
)


def moved(tp, perm, shift):
    """tp under the coordinate permutation perm followed by a translation by shift."""
    def move(x):
        return sum(1 << perm[c] for c in range(tp.n) if x >> c & 1) ^ shift
    return TradePair(frozenset(map(move, tp.t0)), frozenset(map(move, tp.t1)), tp.n)


class TestFaces:
    """The face-scan oracle that the face-sum tests are checked against."""

    def test_one_fixed_coordinate_on_the_square(self):
        members = [frozenset(face) for face in faces(2, 1)]
        assert len(members) == 4
        assert set(members) == {
            frozenset({0b00, 0b10}),  # x1 = 0
            frozenset({0b01, 0b11}),  # x1 = 1
            frozenset({0b00, 0b01}),  # x2 = 0
            frozenset({0b10, 0b11}),  # x2 = 1
        }

    def test_whole_cube_face(self):
        whole = list(faces(3, 0))
        assert len(whole) == 1
        assert sorted(whole[0]) == list(range(8))

    def test_counts(self):
        edges = list(faces(3, 2))
        assert len(edges) == 12
        assert all(len(face) == 2 for face in edges)

    def test_validation(self):
        tp = TradePair(frozenset({0}), frozenset({7}), 3)
        with pytest.raises(ValueError):
            is_trade(tp, 4)
        with pytest.raises(ValueError):
            is_trade(tp, -1)
        with pytest.raises(ValueError):
            face_sums_vanish(character(3, 0b011), 0)
        with pytest.raises(ValueError):
            face_sums_vanish(character(3, 0b011), 4)


class TestFaceSums:
    def test_weight_two_character(self):
        assert face_sums_vanish(character(3, 0b011), 2)

    def test_constant_fails(self):
        assert not face_sums_vanish(constant_function(3, 1), 1)

    def test_level_two_tensor(self):
        f = tensor(phi(2), phi(2))
        assert level_project(f, 2).values == f.values
        assert face_sums_vanish(f, 2)

    def test_random_single_level_samples(self, rng):
        for _ in range(25):
            n = rng.randrange(1, 7)
            i = rng.randrange(1, n + 1)
            assert face_sums_vanish(random_band_function(rng, n, i, i), i)

    def test_matches_face_scan_oracle(self, rng):
        # a nonzero level-k projection passes exactly for i <= k
        outcomes = set()
        for _ in range(12):
            n = rng.randrange(1, 7)
            lo = rng.randrange(0, n + 1)
            f = random_band_function(rng, n, lo, rng.randrange(lo, n + 1))
            for g in (f, zero_function(n), *(level_project(f, k) for k in range(n + 1))):
                for i in range(1, n + 1):
                    expect = all(sum(g.values[x] for x in face) == 0 for face in faces(n, i - 1))
                    assert face_sums_vanish(g, i) == expect
                    outcomes.add(expect)
        assert outcomes == {True, False}

    def test_is_the_band_test(self, rng):
        kinds = Counter()
        for _ in range(60):
            n = rng.randrange(1, 9)
            kind = rng.choice(["dense", "sparse", "zero"])
            if kind == "dense":
                f = random_function(rng, n)
            elif kind == "sparse":
                f = _sparse_function(rng, n)
            else:
                f = zero_function(n)
            answers = [face_sums_vanish(f, i) for i in range(1, n + 1)]
            assert answers == [in_band(f, i, n) for i in range(1, n + 1)], (kind, f)
            kinds[kind, any(answers)] += 1
        assert {k for k, _ in kinds} == {"dense", "sparse", "zero"}
        assert kinds["sparse", True] and kinds["zero", True], kinds


def _sparse_function(rng, n):
    """A few nonzero entries, or the signs of a random subcube's parity split, which pass level tests."""
    if rng.random() < 0.5:
        vals = [0] * (1 << n)
        for x in rng.sample(range(1 << n), rng.randint(1, min(4, 1 << n))):
            vals[x] = rng.choice([-2, -1, 1, 3])
        return make_function(n, vals)
    dims = rng.sample(range(n), rng.randint(1, n))
    base = rng.randrange(1 << n) & ~sum(1 << d for d in dims)
    vals = [0] * (1 << n)
    for bits in range(1 << len(dims)):
        x = base | sum(1 << d for k, d in enumerate(dims) if bits >> k & 1)
        vals[x] = -1 if bin(bits).count("1") & 1 else 1
    return make_function(n, vals)


class TestIsTrade:
    def test_alternating_pair_on_the_square(self):
        tp = TradePair(frozenset({0b00, 0b11}), frozenset({0b01, 0b10}), 2)
        assert is_trade(tp, 1)

    def test_antipodal_singletons_unbalanced(self):
        tp = TradePair(frozenset({0b00}), frozenset({0b11}), 2)
        assert not is_trade(tp, 1)

    def test_size_mismatch_fails_at_level_zero(self):
        tp = TradePair(frozenset({0, 1, 2}), frozenset({4}), 3)
        assert not is_trade(tp, 0)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            TradePair(frozenset(), frozenset({1}), 2)
        with pytest.raises(ValueError):
            TradePair(frozenset({1}), frozenset({1, 2}), 2)

    @pytest.mark.parametrize("kind", [set, list, tuple, frozenset], ids=lambda kind: kind.__name__)
    def test_pair_sets_are_frozensets(self, kind):
        t0, t1 = [0b00, 0b11], [0b01, 0b10]
        tp, ref = TradePair(kind(t0), kind(t1), 2), TradePair(frozenset(t0), frozenset(t1), 2)
        assert type(tp.t0) is frozenset and type(tp.t1) is frozenset
        assert tp == ref and hash(tp) == hash(ref)

    def test_the_callers_set_is_not_the_pairs(self):
        t0 = {0, 1, 2}
        tp = TradePair(t0, {4}, 3)
        t0.add(4)
        assert tp.t0 == {0, 1, 2} and not is_trade(tp, 0)

    @pytest.mark.parametrize("n", [2.0, True, "2", -1], ids=repr)
    def test_pair_rejects_a_bad_dimension(self, n):
        with pytest.raises(ValueError, match=f"^n must be an int >= 0, got {re.escape(repr(n))}"):
            TradePair(frozenset({0}), frozenset({1}), n)

    @pytest.mark.parametrize("t", [1.0, True, -1, 3], ids=repr)
    def test_rejects_a_bad_trade_parameter(self, t):
        tp = TradePair(frozenset({0b00, 0b11}), frozenset({0b01, 0b10}), 2)
        with pytest.raises(ValueError, match="^trade parameter"):
            is_trade(tp, t)

    def test_matches_face_scan_oracle(self, rng):
        # random pairs are almost never trades; a moved blueprint sign split is one for every t < i
        pairs = []
        for _ in range(15):
            n = rng.randrange(2, 5)
            codes = rng.sample(range(1 << n), rng.randrange(2, (1 << n) - 1))
            cut = rng.randrange(1, len(codes))
            pairs.append(TradePair(frozenset(codes[:cut]), frozenset(codes[cut:]), n))
        for n in range(1, 7):
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    pairs += [moved(sign_split(build(bp)), rng.sample(range(n), n), rng.randrange(1 << n))
                              for bp in enumerate_blueprints(n, i, j)]
        outcomes = set()
        for tp in pairs:
            for t in range(tp.n + 1):
                expect = naive_is_trade(tp.t0, tp.t1, tp.n, t)
                assert is_trade(tp, t) == expect
                if t >= 1:
                    outcomes.add(expect)
        assert outcomes == {True, False}

    def test_sparse_pair_in_high_dimension(self):
        # the work follows the pair's support; a table over all 2^40 vertices would not fit
        tp = TradePair(frozenset({1}), frozenset({1 << 39}), 40)
        assert [is_trade(tp, t) for t in range(41)] == [True] + [False] * 40

    def test_trade_spread_over_high_dimension(self, rng):
        # a [2]-trade of H(6) moved onto six coordinates of H(40) stays a [2]-trade and no more
        tp = sign_split(build(single_level_blueprint(6, 3)))
        cols = rng.sample(range(40), 6)

        def spread(codes):
            return frozenset(sum(1 << c for b, c in enumerate(cols) if x >> b & 1) for x in codes)

        wide = TradePair(spread(tp.t0), spread(tp.t1), 40)
        assert [is_trade(wide, t) for t in range(41)] == [True] * 3 + [False] * 38

    def test_trade_parameter_is_downward_closed(self):
        f = build(Blueprint(LOWER, (1,), (2, 2), 0, 5))
        tp = sign_split(f)
        assert is_trade(tp, 2)
        assert is_trade(tp, 1)
        assert is_trade(tp, 0)


class TestSignSplit:
    def test_sign_pair(self):
        tp = sign_split(phi(2))
        assert tp.t0 == {0} and tp.t1 == {3}

    def test_product_pattern(self):
        tp = sign_split(tensor(phi(1), phi(1)))
        assert tp.t0 == {0b00, 0b11} and tp.t1 == {0b01, 0b10}

    def test_needs_both_signs(self):
        with pytest.raises(ValueError):
            sign_split(psi(3))

    @pytest.mark.parametrize("kind", ["repeated", "distinct"])
    def test_matches_fraction_comparisons(self, rng, kind):
        for n in [*range(6)] * 3:
            vals = mixed_table(rng, n, kind)
            pos, neg = naive_sign_split(vals)
            if pos and neg:
                tp = sign_split(make_function(n, vals))
                assert (tp.t0, tp.t1) == (pos, neg)
            else:
                with pytest.raises(ValueError, match="both positive and negative"):
                    sign_split(make_function(n, vals))


class TestThreeValues:
    def test_examples(self):
        assert three_values_check(tensor(phi(2), phi(2)))
        assert not three_values_check(make_function(2, [2, 1, 0, 0]))
        assert three_values_check(point_mass(3))

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            three_values_check(zero_function(2))

    @pytest.mark.parametrize("kind", ["repeated", "distinct"])
    def test_matches_fraction_comparisons(self, rng, kind):
        for n in [*range(6)] * 3:
            vals = mixed_table(rng, n, kind)
            magnitudes = naive_magnitudes(vals)
            if magnitudes:
                assert three_values_check(make_function(n, vals)) is (len(magnitudes) == 1)
            else:
                with pytest.raises(ValueError, match="nonzero function"):
                    three_values_check(make_function(n, vals))


class TestAnfDegree:
    def test_constant_one(self):
        assert anf_degree(constant_function(2, 1)) == 0

    def test_diagonal_pair_indicator(self):
        # indicator of {00, 11} is 1 + x1 + x2 over Z_2, degree 1
        assert anf_degree(make_function(2, [1, 0, 0, 1])) == 1
        assert naive_anf_degree([1, 0, 0, 1]) == 1

    def test_support_of_level_two_product(self):
        f = tensor(phi(2), phi(2))
        indicator = make_function(4, [1 if v != 0 else 0 for v in f.values])
        assert anf_degree(indicator) == 2

    def test_matches_subset_xor_oracle(self, rng):
        for n in [*range(8)] * 3:
            vals = [rng.randrange(2) for _ in range(1 << n)]
            if not any(vals):
                vals[0] = 1
            assert anf_degree(make_function(n, vals)) == naive_anf_degree(vals)

    @pytest.mark.parametrize("n", range(8, 13))
    def test_matches_subset_xor_oracle_on_larger_cubes(self, rng, n):
        # a random table on a random subcube, so the degree lies between the
        # subcube's codimension and n; the oracle takes about 4^n steps
        size = 1 << n
        fixed = rng.randrange(size)
        pattern = rng.randrange(size) & fixed
        vals = [rng.randrange(2) if x & fixed == pattern else 0 for x in range(size)]
        vals[pattern] = 1
        assert anf_degree(make_function(n, vals)) == naive_anf_degree(vals)

    def test_zero_one_check_matches_fraction_comparisons(self, rng):
        # 0 and 1 in every spelling, and sometimes one entry of another value
        for n in [*range(6)] * 4:
            vals = [rng.choice(rng.choice(SPELLINGS[:2])) for _ in range(1 << n)]
            if rng.randrange(2):
                vals[rng.randrange(len(vals))] = rng.choice(rng.choice(SPELLINGS[2:]))
            f = make_function(n, vals)
            if not naive_is_zero_one(vals):
                with pytest.raises(ValueError, match="0/1-valued"):
                    anf_degree(f)
            elif naive_is_zero(vals):
                with pytest.raises(ValueError, match="nonzero"):
                    anf_degree(f)
            else:
                assert anf_degree(f) == naive_anf_degree([Fraction(v) for v in vals])

    def test_contract_violations(self):
        with pytest.raises(ValueError):
            anf_degree(make_function(1, [2, 0]))
        with pytest.raises(ValueError, match="0/1-valued"):
            # scaled by the lcm 2 these are the 0/1 ints [1, 0, 0, 1]
            anf_degree(make_function(2, [Fraction(1, 2), 0, 0, "2/4"]))
        with pytest.raises(ValueError):
            anf_degree(zero_function(2))


class TestDetectAffine:
    def test_two_dimensional_linear_subspace(self):
        sub = detect_affine({0b000, 0b011, 0b110, 0b101}, 3)
        assert sub is not None
        assert sub.translation == 0 and sub.dimension == 2
        assert set(sub.members()) == {0b000, 0b011, 0b110, 0b101}

    def test_wrong_size(self):
        assert detect_affine({0b00, 0b01, 0b10}, 2) is None

    def test_power_of_two_but_not_affine(self):
        assert detect_affine({0b000, 0b001, 0b010, 0b100}, 3) is None

    def test_translated_subspace(self):
        sub = detect_affine({0b01, 0b11}, 2)
        assert sub is not None
        assert sub.translation == 0b01 and sub.basis == (0b10,)

    def test_block_product_support(self):
        f = tensor(tensor(phi(1), phi(2)), point_mass(1))
        sub = detect_affine(support(f), 4)
        assert sub is not None
        assert sub.translation == 0
        assert sub.basis == (0b0001, 0b0110)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            detect_affine(set(), 2)


class TestDisjointBasis:
    def test_disjoint_pair(self):
        assert has_disjoint_support_basis(AffineSubspace(4, 0, (0b0001, 0b0110)))

    def test_overlapping_span_reduces_to_sharing_masks(self):
        # span{1100, 0110}: the echelon basis is {1010, 0110}, sharing coordinate 3
        sub = detect_affine({0, 0b0011, 0b0110, 0b0101}, 4)
        assert sub is not None
        assert sub.basis == (0b0101, 0b0110)
        assert not has_disjoint_support_basis(sub)

    def test_one_dimensional(self):
        assert has_disjoint_support_basis(AffineSubspace(3, 0, (0b111,)))


class TestSplitSubspace:
    def test_two_dimensional_split(self):
        sub = AffineSubspace(4, 0, (0b0001, 0b0110))
        tp = split_subspace(sub)
        assert tp.t0 == {0b0000, 0b0111}
        assert tp.t1 == {0b0001, 0b0110}
        assert is_trade(tp, 1)

    def test_one_dimensional_split(self):
        tp = split_subspace(AffineSubspace(3, 0, (0b111,)))
        assert tp.t0 == {0} and tp.t1 == {7}
        assert is_trade(tp, 0)

    def test_matches_sign_split_of_the_build(self):
        f = build(Blueprint(LOWER, (1,), (2,), 1, 4))
        tp = sign_split(f)
        sub = detect_affine(support(f), 4)
        split = split_subspace(sub)
        assert {split.t0, split.t1} == {tp.t0, tp.t1}

    def test_preconditions(self):
        with pytest.raises(ValueError):
            split_subspace(AffineSubspace(4, 0, (0b0011, 0b0110)))
        with pytest.raises(ValueError):
            split_subspace(AffineSubspace(3, 1, ()))


def random_subspace(rng, dim, disjoint):
    """An affine subspace of dimension dim in H(n), n in [dim, 16], with a
    basis of pairwise disjoint masks when disjoint is set; otherwise random
    independent vectors, whose echelon basis may or may not be disjoint."""
    n = rng.randrange(dim, 17)
    coords = rng.sample(range(n), n)
    if disjoint:
        cuts = [0, *sorted(rng.sample(range(1, n), dim - 1)), n] if dim else [0]
        basis = [sum(1 << c for c in coords[a:b] if c == coords[a] or rng.randrange(2))
                 for a, b in zip(cuts, cuts[1:])]
    else:
        basis = []
        while len(basis) < dim:
            v = rng.randrange(1, 1 << n)
            try:
                AffineSubspace(n, 0, (*basis, v))
            except ValueError:  # v depends on the vectors drawn so far
                continue
            basis.append(v)
    return AffineSubspace(n, rng.randrange(1 << n), tuple(basis))


class TestSubspaceSpans:
    # members, parity split and disjointness against the member-by-member
    # oracles, on random echelon bases of dimension 0..10
    @pytest.mark.parametrize("disjoint", [True, False])
    def test_match_the_member_by_member_oracles(self, rng, disjoint):
        for dim in [*range(11)] * 4:
            sub = random_subspace(rng, dim, disjoint)
            members = sub.members()
            assert inspect.isgenerator(members)
            members = list(members)
            assert len(set(members)) == len(members) == 1 << dim
            assert set(members) == set(naive_members(sub.translation, sub.basis))
            assert members[0] == sub.translation
            assert all(x ^ y in sub.basis for x, y in zip(members, members[1:]))
            assert has_disjoint_support_basis(sub) == naive_pairwise_disjoint(sub.basis)
            if disjoint:
                assert has_disjoint_support_basis(sub)
            if dim and has_disjoint_support_basis(sub):
                tp = split_subspace(sub)
                assert (set(tp.t0), set(tp.t1)) == naive_parity_split(sub.translation, sub.basis)
            else:
                with pytest.raises(ValueError, match="split_subspace needs"):
                    split_subspace(sub)

    def test_members_follow_the_gray_code(self):
        # member k flips the basis vector at the lowest set bit of k
        sub = AffineSubspace(6, 0b100000, (0b000001, 0b000110, 0b011000))
        assert list(sub.members()) == [0b100000, 0b100001, 0b100111, 0b100110,
                                       0b111110, 0b111111, 0b111001, 0b111000]


class TestAffineSubspace:
    def test_basis_is_reduced_to_echelon_form(self):
        # span{11, 10} is all of H(2); its echelon basis {01, 10} is disjoint
        sub = AffineSubspace(2, 0, (0b11, 0b10))
        assert sub.basis == (0b01, 0b10)
        assert has_disjoint_support_basis(sub)
        assert set(split_subspace(sub).t0) == {0b00, 0b11}

    def test_zero_or_dependent_vectors_rejected(self):
        for basis in ((0b00,), (0b01, 0b00), (0b011, 0b110, 0b101)):
            with pytest.raises(ValueError, match="basis"):
                AffineSubspace(3, 0, basis)

    def test_codes_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            AffineSubspace(2, 4, ())
        with pytest.raises(ValueError):
            AffineSubspace(2, 0, (0b100,))


@pytest.mark.parametrize("make, args", [
    (AffineSubspace, (True, 0, ())),
    (AffineSubspace, (2.0, 0, ())),
    (AffineSubspace, ("3", 0, ())),
    (AffineSubspace, (-1, 0, ())),
    (AffineSubspace, (2, True, ())),
    (AffineSubspace, (2, 1.0, ())),
    (AffineSubspace, (2, 0, (True,))),
    (AffineSubspace, (2, 0, (0b01, 2.0))),
    (detect_affine, ({0}, 2.0)),
    (detect_affine, ({0}, True)),
    (detect_affine, ({0}, "3")),
    (detect_affine, ({0}, -1)),
    (detect_affine, ({1.0}, 2)),
    (detect_affine, ({0, True}, 2)),
    (TradePair, (frozenset({True}), frozenset({0}), 1)),
    (TradePair, (frozenset({1.0}), frozenset({0}), 1)),
    (TradePair, (frozenset({1.5}), frozenset({0}), 1)),
], ids=lambda v: getattr(v, "__name__", None) or repr(v))
def test_non_int_dimension_and_codes_rejected(make, args):
    with pytest.raises(ValueError):
        make(*args)
