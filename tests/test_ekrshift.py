import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonnegsets.ekrshift import (
    BoundedFamily,
    CrossBoundError,
    NotAnUpsetError,
    PropertyVerdict,
    has_property,
    is_upset,
    max_family_oracle,
    push_up,
    theorem1_via_ekr,
    to_upset,
    upset_is_intersecting,
)
from nonnegsets.nonneg import NumberSequence, extremal_construction
from nonnegsets import setcore
from nonnegsets.setcore import MAX_LATTICE_N, SetFamily, Subset, bound_main, family_is_intersecting, masks_by_size

from oracles import (
    brute_max_family,
    naive_cross_bound_witness,
    naive_cross_bounded,
    naive_intersecting,
    naive_is_upset,
)


def family_of(n: int, k: int, masks) -> BoundedFamily:
    return BoundedFamily(SetFamily.from_masks(n, masks), k)


def bounded_families(n: int, max_members: int = 6):
    """Strategy for arbitrary bounded families over [n]."""
    return st.integers(1, n).flatmap(
        lambda k: st.sets(
            st.sampled_from(masks_by_size(n, 1, k)), max_size=max_members
        ).map(lambda masks: family_of(n, k, masks))
    )


class TestBoundedFamily:
    def test_guards(self):
        with pytest.raises(ValueError):
            family_of(3, 2, {0b000})  # empty member
        with pytest.raises(ValueError):
            family_of(3, 1, {0b011})  # above the cap
        with pytest.raises(ValueError):
            family_of(3, 4, {0b001})
        assert len(family_of(3, 2, {0b001, 0b011})) == 2


class TestHasProperty:
    def test_examples(self):
        verdict = has_property(family_of(3, 1, {0b001, 0b010}))
        assert not verdict.holds
        assert verdict.witness == (Subset.of([1], 3), Subset.of([2], 3))
        assert has_property(family_of(3, 2, {0b001, 0b010})).holds
        assert not has_property(family_of(4, 3, {0b0011, 0b1100})).holds
        assert has_property(family_of(4, 4, {0b0011, 0b1100})).holds

    @settings(max_examples=150, deadline=None)
    @given(bounded_families(4))
    def test_matches_naive(self, f):
        assert has_property(f).holds == naive_cross_bounded(f.family.members, f.k)


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


@st.composite
def capped_families(draw, min_n: int = 1, max_n: int = 9, max_members: int = 14):
    """(n, k, masks): nonempty members of size <= k, with k = n allowed."""
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, n))
    member = st.sets(st.integers(0, n - 1), min_size=1, max_size=k).map(lambda es: sum(1 << e for e in es))
    return n, k, sorted(draw(st.sets(member, max_size=max_members)))


@st.composite
def near_upsets(draw, max_n: int = 8):
    """(n, k, masks): the capped up-closure of a few generators, maybe with one member dropped."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    gens = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=3))
    masks = [
        m for m in range(1, 1 << n)
        if _popcount(m) <= k and any(m & g == g for g in gens)
    ]
    if masks and draw(st.booleans()):
        masks.pop(draw(st.integers(0, len(masks) - 1)))
    return n, k, masks


@st.composite
def wide_upsets(draw):
    """(n, k, masks) above the lattice cap: size k - 1 bases with all their
    one-element extensions, plus random k-sets."""
    n = draw(st.integers(MAX_LATTICE_N + 1, 40))
    k = draw(st.integers(2, 5))
    k_set = st.sets(st.integers(0, n - 1), min_size=k, max_size=k).map(lambda es: sum(1 << e for e in es))
    base = st.sets(st.integers(0, n - 1), min_size=k - 1, max_size=k - 1).map(lambda es: sum(1 << e for e in es))
    masks = set(draw(st.lists(k_set, max_size=4)))
    for b in draw(st.lists(base, min_size=1, max_size=2)):
        masks |= {b} | {b | 1 << e for e in range(n) if not b >> e & 1}
    return n, k, sorted(masks)


# Weights for setcore._lattice_pays that force the member-level scan and,
# up to MAX_LATTICE_N elements, the subset lattice.
SCAN, LATTICE = 0, 1 << 60


class TestLatticeChecks:
    """The lattice and member-level predicates against the pairwise oracles, violations included."""

    def _check(self, n: int, k: int, masks: list[int]) -> None:
        f = family_of(n, k, masks)
        expected = naive_cross_bound_witness(masks, k)
        witness = None if expected is None else (Subset(expected[0], n), Subset(expected[1], n))
        for words in (SCAN, LATTICE):
            with mock.patch.object(setcore, "_WORDS_PER_STEP", words):
                assert has_property(f) == PropertyVerdict(holds=expected is None, witness=witness)
                assert family_is_intersecting(f.family) == naive_intersecting(masks)
                assert is_upset(f) == naive_is_upset(masks, n, k)

    @settings(max_examples=120, deadline=None)
    @given(capped_families())
    def test_random_families(self, case):
        self._check(*case)

    @settings(max_examples=60, deadline=None)
    @given(near_upsets())
    def test_upsets_and_near_upsets(self, case):
        self._check(*case)

    @settings(max_examples=25, deadline=None)
    @given(capped_families(min_n=MAX_LATTICE_N + 1, max_n=40, max_members=8))
    def test_pairwise_scan_above_lattice_cap(self, case):
        self._check(*case)

    @settings(max_examples=10, deadline=None)
    @given(wide_upsets())
    def test_pairwise_upsets_above_lattice_cap(self, case):
        n, k, masks = case
        self._check(n, k, masks)
        for drop in range(len(masks)):
            self._check(n, k, masks[:drop] + masks[drop + 1:])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=10))))
    def test_intersecting_with_empty_member(self, case):
        n, masks = case
        for words in (SCAN, LATTICE):
            with mock.patch.object(setcore, "_WORDS_PER_STEP", words):
                assert family_is_intersecting(SetFamily.from_masks(n, masks)) == naive_intersecting(sorted(masks))

    def test_path_follows_family_density(self):
        # three sets over [24] are scanned: no 2^24-bit patterns are built
        sparse = family_of(24, 4, [0b11, 1 << 23 | 0b10, 1 << 23 | 0b10100])
        with mock.patch.object(setcore, "_element_patterns", side_effect=AssertionError("lattice used")):
            assert not has_property(sparse).holds
            assert not is_upset(sparse)
            assert not family_is_intersecting(sparse.family)
        # every set of size 1..3 over [10] is dense enough for the lattice
        dense = family_of(10, 3, masks_by_size(10, 1, 3))
        with mock.patch.object(setcore, "_element_patterns", wraps=setcore._element_patterns) as patterns:
            assert not has_property(dense).holds
            assert is_upset(dense)
            assert not family_is_intersecting(dense.family)
        assert patterns.call_count == 3

    def test_examples(self):
        for n, k in ((1, 1), (4, 4), (MAX_LATTICE_N + 2, 3)):
            self._check(n, k, [])
        assert family_is_intersecting(SetFamily.from_masks(3, [0]))
        assert not family_is_intersecting(SetFamily.from_masks(3, [0, 0b100]))
        assert not family_is_intersecting(SetFamily.from_masks(30, [0, 1 << 29]))
        # k = n: {1} and {2,3} sum to 3 <= 3, {1,2} and {3} do not fit k = 2
        self._check(3, 3, [0b001, 0b110])
        self._check(3, 2, [0b011, 0b100])
        # {1} plus every {1, j} is an upset under k = 2 above the lattice cap
        n = MAX_LATTICE_N + 2
        star = [1] + [1 | 1 << j for j in range(1, n)]
        assert is_upset(family_of(n, 2, star))
        assert not is_upset(family_of(n, 2, star[:-1]))
        self._check(n, 2, star[:-1] + [0b110])


class TestPushUp:
    def test_blocked_by_size_cap(self):
        f = family_of(2, 1, {0b10})
        assert push_up(f, 1).family.members == (0b10,)

    def test_grows_when_allowed(self):
        f = family_of(2, 2, {0b10})
        assert push_up(f, 1).family.members == (0b11,)

    def test_blocked_when_image_present(self):
        f = family_of(2, 2, {0b01, 0b11})
        assert push_up(f, 2).family.members == (0b01, 0b11)

    def test_element_guard(self):
        with pytest.raises(ValueError):
            push_up(family_of(2, 1, {0b01}), 3)
        with pytest.raises(ValueError):
            push_up(family_of(2, 1, {0b01}), 0)

    def test_preserves_size_and_property_exhaustively(self):
        # every family over [3] with k = 2, every element
        masks = masks_by_size(3, 1, 2)
        for size in range(len(masks) + 1):
            for combo in itertools.combinations(masks, size):
                f = family_of(3, 2, combo)
                before = has_property(f).holds
                for i in (1, 2, 3):
                    g = push_up(f, i)
                    assert len(g) == len(f)
                    if before:
                        assert has_property(g).holds

    @settings(max_examples=150, deadline=None)
    @given(bounded_families(5), st.integers(1, 5))
    def test_preserves_size_and_property(self, f, i):
        g = push_up(f, i)
        assert len(g) == len(f)
        if has_property(f).holds:
            assert has_property(g).holds


class TestIsUpset:
    def test_examples(self):
        assert is_upset(family_of(3, 2, {0b001, 0b011, 0b101}))
        assert not is_upset(family_of(3, 2, {0b001}))
        # members already at the cap need no successors
        assert is_upset(family_of(4, 2, {0b0011, 0b1100}))
        assert is_upset(family_of(3, 2, set()))

    @settings(max_examples=150, deadline=None)
    @given(bounded_families(4))
    def test_matches_naive(self, f):
        assert is_upset(f) == naive_is_upset(f.family.members, 4, f.k)


class TestToUpset:
    def test_example_run(self):
        result = to_upset(family_of(3, 2, {0b001, 0b010, 0b100}))
        assert result.family.family.members == (0b001, 0b011, 0b101)
        assert result.log == ((1, 2),)

    def test_upset_unchanged(self):
        f = family_of(3, 2, {0b001, 0b011, 0b101})
        result = to_upset(f)
        assert result.family == f
        assert result.log == ()

    def test_member_at_cap_unchanged(self):
        f = family_of(4, 2, {0b0011})
        result = to_upset(f)
        assert result.family == f
        assert result.log == ()

    def test_fixpoint_properties_exhaustive(self):
        masks = masks_by_size(3, 1, 2)
        for size in range(len(masks) + 1):
            for combo in itertools.combinations(masks, size):
                f = family_of(3, 2, combo)
                result = to_upset(f)
                assert is_upset(result.family)
                assert len(result.family) == len(f)
                if has_property(f).holds:
                    assert has_property(result.family).holds

    @settings(max_examples=100, deadline=None)
    @given(bounded_families(5, max_members=10))
    def test_fixpoint_properties(self, f):
        result = to_upset(f)
        assert is_upset(result.family)
        assert len(result.family) == len(f)
        if has_property(f).holds:
            assert has_property(result.family).holds


class TestUpsetIntersecting:
    def test_star_upset(self):
        assert upset_is_intersecting(family_of(3, 2, {0b001, 0b011, 0b101}))

    def test_k_eq_n_rejected(self):
        # {1}, {2}, {1,2} with k = n = 2: cross-bounded upset, not intersecting
        f = family_of(2, 2, {0b01, 0b10, 0b11})
        assert is_upset(f) and has_property(f).holds
        assert not naive_intersecting(f.family.members)
        with pytest.raises(ValueError, match="k <= n-1"):
            upset_is_intersecting(f)

    def test_precondition_errors_distinct(self):
        with pytest.raises(NotAnUpsetError):
            upset_is_intersecting(family_of(3, 2, {0b010}))
        with pytest.raises(CrossBoundError):
            upset_is_intersecting(family_of(4, 2, {0b0011, 0b1100}))

    def test_true_on_all_small_valid_inputs(self):
        # the claim itself: cross-bounded upsets with k <= n-1 intersect
        for n in (3, 4):
            for k in range(1, n):
                masks = masks_by_size(n, 1, k)
                for size in range(len(masks) + 1):
                    for combo in itertools.combinations(masks, size):
                        f = family_of(n, k, combo)
                        if not is_upset(f) or not has_property(f).holds:
                            continue
                        assert upset_is_intersecting(f)
                        assert naive_intersecting(combo)


class TestOracle:
    def test_frozen_values(self):
        assert max_family_oracle(3, 2).size == 3
        assert max_family_oracle(4, 2).size == 4
        assert max_family_oracle(5, 2).size == 5

    def test_k_eq_1_and_k_eq_n_minus_1(self):
        for n in range(2, 7):
            assert max_family_oracle(n, 1).size == 1
            assert max_family_oracle(n, n - 1).size == (1 << (n - 1)) - 1

    def test_matches_exhaustive_search(self):
        for n in range(2, 5):
            for k in range(1, n):
                assert max_family_oracle(n, k).size == brute_max_family(n, k)

    def test_witness_is_cross_bounded_and_sized(self):
        result = max_family_oracle(5, 3)
        assert len(result.witness) == result.size
        assert naive_cross_bounded(result.witness.members, 3)

    def test_guards(self):
        with pytest.raises(ValueError):
            max_family_oracle(7, 2)
        with pytest.raises(ValueError):
            max_family_oracle(5, 5)
        with pytest.raises(ValueError):
            max_family_oracle(5, 0)


class TestTheorem1ViaEkr:
    def test_extremal_sequence_meets_cap(self):
        verdict = theorem1_via_ekr(extremal_construction(5, 3, 1))
        assert verdict.passed
        assert verdict.property_holds
        assert verdict.family_size == verdict.cap == 11

    def test_random_constrained_sequences_pass(self):
        rng = random.Random(8)
        cases = 0
        while cases < 40:
            n = rng.randint(2, 9)
            k = rng.randint(1, n - 1)
            s = NumberSequence.of([rng.randint(-3 * n, 3 * n) for _ in range(n)], k)
            if not s.constraint_ok:
                continue
            cases += 1
            verdict = theorem1_via_ekr(s)
            assert verdict.property_holds
            assert verdict.passed
            assert verdict.cap == bound_main(n, k) - 1

    def test_constraint_violation_rejected(self):
        with pytest.raises(ValueError):
            theorem1_via_ekr(NumberSequence.of([1, 1, -1], 1))

    def test_k_eq_n_breaks_the_route(self):
        # with k = n nothing constrains the values; the cross-bound still
        # holds vacuously here but the cap is exceeded, and the verdict says so
        verdict = theorem1_via_ekr(NumberSequence.of([1, 1], 2))
        assert verdict.property_holds
        assert verdict.family_size == 3 > verdict.cap == 2
        assert not verdict.passed
