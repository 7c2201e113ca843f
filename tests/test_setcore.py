import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonnegsets.setcore import (
    FileFormatError,
    SetFamily,
    Subset,
    binomial,
    bound_gap,
    bound_main,
    bound_refined,
    family_is_intersecting,
    masks_by_size,
    render_masks,
    submasks,
)

from oracles import naive_nonneg_masks


class TestSubset:
    def test_roundtrip_render_parse(self):
        s = Subset.of([1, 3, 4], 5)
        assert str(s) == "{1,3,4}"
        assert Subset.parse("{1,3,4}", 5) == s
        assert Subset.parse("{ 1 , 3 ,4 }", 5) == s
        assert Subset.parse("{}", 5) == Subset.empty(5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Subset(1 << 10, 5)
        with pytest.raises(ValueError):
            Subset(0, 64)
        with pytest.raises(ValueError):
            Subset.of([6], 5)
        with pytest.raises(FileFormatError):
            Subset.parse("1,2", 5)
        with pytest.raises(FileFormatError):
            Subset.parse("{1,x}", 5)

    def test_ordering_is_by_mask(self):
        subsets = [Subset(m, 4) for m in (5, 1, 12, 0)]
        assert [s.mask for s in sorted(subsets)] == [0, 1, 5, 12]

    def test_set_operations(self):
        a = Subset.of([1, 2], 4)
        assert a.complement() == Subset.of([3, 4], 4)
        assert 2 in a and 3 not in a
        assert list(a) == [1, 2]

    @given(st.integers(0, 63), st.data())
    def test_elements_roundtrip(self, n, data):
        mask = data.draw(st.integers(0, (1 << n) - 1 if n else 0))
        s = Subset(mask, n)
        assert Subset.of(s.elements(), n) == s
        assert s.size == len(s.elements())


class TestSetFamily:
    def test_canonical_order_and_membership(self):
        fam = SetFamily.of(3, [Subset.of([2], 3), Subset.of([1], 3)])
        assert list(fam) == [1, 2]
        assert Subset.of([1], 3).mask in fam
        assert Subset.of([3], 3).mask not in fam
        assert len(fam) == 2

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SetFamily.of(3, [Subset.of([1], 3), Subset.of([1], 3)])

    def test_parse_render_roundtrip(self):
        fam = SetFamily.of(4, [Subset.of([1, 2], 4), Subset.of([3], 4)])
        assert SetFamily.parse(fam.render(), 4) == fam
        with pytest.raises(FileFormatError):
            SetFamily.parse("{1}\n{1}\n", 4)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{1}\n\n1,2\n", "line 3: subset must be brace-delimited, got '1,2'"),
            ("# c\n{1,x}\n", "line 2: bad subset element in '{1,x}'"),
            ("{1}\n{2,5}\n", "line 2: element 5 outside ground set 1..4"),
            ("{ 0 }\n", "line 1: element 0 outside ground set 1..4"),
            ("{2,x,9}\n", "line 1: bad subset element in '{2,x,9}'"),
            ("{1,2}\n{3}\n{ 2 , 1 }\n", "duplicate member {1,2}"),
        ],
    )
    def test_parse_errors_keep_their_messages(self, text, message):
        with pytest.raises(FileFormatError) as info:
            SetFamily.parse(text, 4)
        assert str(info.value) == message

    def test_parse_reads_every_spelling_of_an_element(self):
        fam = SetFamily.parse("{1, 3}\n{+2,04}\n{}\n{3,3}\n", 4)
        assert fam.members == (0, 0b0100, 0b0101, 0b1010)


class TestRenderMasks:
    def test_every_mask_up_to_12(self):
        for n in range(13):
            masks = range(1 << n)
            assert render_masks(masks) == [str(Subset(m, n)) for m in masks]

    def test_random_masks_on_wide_ground_sets(self):
        rng = random.Random(26)
        for n in (19, 20, 63):
            full = (1 << n) - 1
            low = (1 << 10) - 1
            masks = [0, full, full & ~low, low, 1 << (n - 1)]
            masks += [rng.getrandbits(n) for _ in range(300)]
            masks += [rng.getrandbits(n) & ~low for _ in range(50)]
            assert render_masks(masks) == [str(Subset(m, n)) for m in masks]

    def test_family_render_joins_lines(self):
        fam = SetFamily.from_masks(12, [0, 0b1, 0b1100_0000_0011])
        assert fam.render() == "{}\n{1}\n{1,2,11,12}"


class TestBinomial:
    def test_examples(self):
        assert binomial(5, 2) == 10
        assert binomial(5, 0) == 1
        assert binomial(5, 6) == 0
        assert binomial(5, -1) == 0
        assert binomial(0, 0) == 1

    def test_range_guard(self):
        with pytest.raises(ValueError):
            binomial(65, 1)
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(1, 64), st.integers(0, 64))
    def test_pascal_identity(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestBounds:
    def test_bound_main_examples(self):
        assert bound_main(5, 2) == 6
        assert bound_main(4, 3) == 8
        for n in range(1, 30):
            assert bound_main(n, 1) == 2
        for n in range(2, 30):
            assert bound_main(n, n - 1) == 1 << (n - 1)

    def test_bound_main_frozen_oracle_value(self):
        # Exhaustively recounted for x = (1, -1, -1, -1, -1), k = 2.
        assert len(naive_nonneg_masks([1, -1, -1, -1, -1])) == 6 == bound_main(5, 2)

    def test_bound_main_range_errors(self):
        with pytest.raises(ValueError):
            bound_main(5, 0)
        with pytest.raises(ValueError):
            bound_main(5, 6)
        with pytest.raises(ValueError):
            bound_main(65, 1)

    def test_bound_refined_examples(self):
        assert bound_refined(5, 3, 2) == 10
        assert bound_refined(6, 4, 4) == 16
        for n in range(2, 20):
            for k in range(1, n):
                assert bound_refined(n, k, 1) == bound_main(n, k)

    def test_bound_refined_collapses_at_k_eq_n_minus_1(self):
        for n in range(3, 16):
            for t in range(1, n):
                assert bound_refined(n, n - 1, t) == 1 << (n - 1)

    def test_bound_refined_frozen_oracle_values(self):
        assert len(naive_nonneg_masks([1, 0, -1, -1, -1])) == 10 == bound_refined(5, 3, 2)
        assert len(naive_nonneg_masks([0, 0, 0, 0, -1, -1])) == 16 == bound_refined(6, 4, 4)

    def test_bound_refined_preconditions(self):
        with pytest.raises(ValueError):
            bound_refined(5, 5, 1)  # needs k < n
        with pytest.raises(ValueError):
            bound_refined(5, 3, 0)
        with pytest.raises(ValueError):
            bound_refined(5, 3, 4)

    def test_bound_gap_example(self):
        assert bound_gap(6, 3, 1) == 5
        assert bound_refined(6, 3, 1) - bound_refined(6, 3, 2) == 5

    def test_bound_gap_sign(self):
        for n in range(3, 20):
            for k in range(2, n):
                for t in range(1, k):
                    gap = bound_gap(n, k, t)
                    if k == n - 1:
                        assert gap == 0
                    else:
                        assert gap > 0

    def test_bound_gap_admits_k_eq_n(self):
        # The identity extends to k = n where the difference goes negative.
        assert bound_gap(5, 5, 2) == -(1 << 1)

    def test_bound_gap_preconditions(self):
        with pytest.raises(ValueError):
            bound_gap(5, 3, 3)
        with pytest.raises(ValueError):
            bound_gap(5, 3, 0)

    @given(st.integers(2, 40), st.data())
    def test_bound_gap_closed_form(self, n, data):
        k = data.draw(st.integers(2, n))
        t = data.draw(st.integers(1, k - 1))
        gap = bound_gap(n, k, t)
        assert gap == (1 << (t - 1)) * (math.comb(n - t - 1, k - t) if k - t <= n - t - 1 else 0) - (1 << (t - 1))


class TestFamilyIntersecting:
    def test_examples(self):
        star = SetFamily.of(4, [Subset.of([1], 4), Subset.of([1, 2], 4), Subset.of([1, 3], 4)])
        assert family_is_intersecting(star)
        split = SetFamily.of(4, [Subset.of([1], 4), Subset.of([2], 4)])
        assert not family_is_intersecting(split)
        assert family_is_intersecting(SetFamily.of(4, []))
        assert family_is_intersecting(SetFamily.of(4, [Subset.of([2], 4)]))


class TestMaskHelpers:
    def test_masks_by_size_sorted(self):
        masks = masks_by_size(4, 1, 2)
        assert masks == sorted(masks)
        assert all(1 <= m.bit_count() <= 2 for m in masks)
        assert len(masks) == 4 + 6

    def test_submasks_complete(self):
        subs = sorted(submasks(0b1010))
        assert subs == [0b0000, 0b0010, 0b1000, 0b1010]
