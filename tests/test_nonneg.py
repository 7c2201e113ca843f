import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonnegsets.nonneg import (
    NumberSequence,
    SamplingError,
    _COUNT_CHUNK,
    _INT64_SAFE,
    _count_nonneg_bigint,
    _count_nonneg_rows,
    _list_subset_sums,
    _sample_constrained,
    _scaled_int_values,
    _subset_sums,
    classify_nonneg_structure,
    constraint_holds,
    enumerate_nonneg,
    extremal_construction,
    parse_sequence,
    read_sequence_file,
    render_sequence,
    verify_theorem1,
    verify_theorem2,
)
from nonnegsets.setcore import Subset, bound_main, bound_refined

from oracles import naive_constraint, naive_nonneg_masks, product_nonneg_counts


class TestNumberSequence:
    def test_of_coerces(self):
        s = NumberSequence.of([1, "1/2", Fraction(-3, 4)], 2)
        assert s.values == (Fraction(1), Fraction(1, 2), Fraction(-3, 4))
        assert s.n == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            NumberSequence.of([], 1)
        with pytest.raises(ValueError):
            NumberSequence.of([1, 2], 0)
        with pytest.raises(ValueError):
            NumberSequence.of([1, 2], 3)
        with pytest.raises(TypeError):
            NumberSequence((1.5,), 1)
        with pytest.raises(ValueError):
            NumberSequence.of([-1] * 64, 1)

    def test_constraint_ok_recorded(self):
        assert NumberSequence.of([1, -1, -1], 2).constraint_ok
        assert not NumberSequence.of([1, -1, -1], 1).constraint_ok

    def test_subset_sum_exact(self):
        s = NumberSequence.of(["1/3", "1/3", "-2/3"], 2)
        assert s.subset_sum(Subset.of([1, 2], 3)) == Fraction(2, 3)
        assert s.subset_sum(Subset.of([1, 2, 3], 3)) == 0
        assert s.subset_sum(Subset.empty(3)) == 0
        with pytest.raises(ValueError):
            s.subset_sum(Subset.of([1], 4))

    def test_sorted_desc(self):
        s = NumberSequence.of([-1, 3, 0], 2).sorted_desc()
        assert s.values == (Fraction(3), Fraction(0), Fraction(-1))


class TestConstraint:
    def test_examples(self):
        assert not constraint_holds(NumberSequence.of([1, -1, -1], 1))  # top pair sums 0
        assert constraint_holds(NumberSequence.of([1, -1, -1], 2))
        # k = n leaves nothing to check.
        assert constraint_holds(NumberSequence.of([5, 5, 5], 3))

    def test_single_check_matches_all_subsets_reading(self):
        rng = random.Random(20260815)
        for _ in range(300):
            n = rng.randint(2, 7)
            k = rng.randint(1, n)
            values = [rng.randint(-8, 8) for _ in range(n)]
            s = NumberSequence.of(values, k)
            assert constraint_holds(s) == naive_constraint(values, k)


class TestSubsetSums:
    def test_numpy_and_python_paths_agree(self):
        values = tuple(Fraction(v) for v in (3, -2, 5, -7))
        fast = _subset_sums(values)
        slow = _list_subset_sums(_scaled_int_values(values))
        assert isinstance(fast, np.ndarray)
        assert isinstance(slow, list)
        assert [int(v) for v in fast] == slow

    def test_huge_scale_falls_back_to_python(self):
        values = (Fraction(1, 3), Fraction(1 << 61), Fraction(-(1 << 61)))
        sums = _subset_sums(values)
        assert isinstance(sums, list)
        # index 0b110 selects the two huge values, which cancel exactly
        assert sums[0b110] == 0
        assert sums[0b001] == 1  # scaled by the lcm 3

    def test_denominators_cleared(self):
        values = (Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6))
        sums = _subset_sums(values)
        assert int(sums[0b111]) == 0
        assert int(sums[0b011]) == 5  # (1/2 + 1/3) * 6


def _naive_counts(rows) -> list[int]:
    return [len(naive_nonneg_masks(row)) for row in rows]


class TestCountNonnegRows:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=1, max_size=4
            )
        )
    )
    @example([[0, 0, 0]])
    @example([[3, -3, 0, 2, -2], [0, -1, 1, 0, 0]])
    def test_int64_rows_match_naive(self, rows):
        counts = _count_nonneg_rows(np.array(rows, dtype=np.int64))
        assert isinstance(counts, np.ndarray)
        expected = _naive_counts(rows)
        assert counts.tolist() == expected
        assert [_count_nonneg_bigint(row) for row in rows] == expected

    def test_rows_past_int64_take_bigint_path(self):
        big = _INT64_SAFE
        rows = [
            [big, -big, 3, -(big << 8), 0, big << 8, -3],
            [-(big << 1), big, big, 1, -1, 0, 5],
        ]
        counts = _count_nonneg_rows(rows)
        assert isinstance(counts, list)
        assert counts == _naive_counts(rows)

    def test_large_denominator_lcm_takes_bigint_path(self):
        values = [
            Fraction(1, (1 << 61) - 1),
            Fraction(1, (1 << 31) - 1),
            Fraction(-1, (1 << 89) - 1),
            Fraction(-3, (1 << 31) - 1),
            Fraction(1, 7),
            Fraction(-2, 7),
            Fraction(0),
        ]
        counts = _count_nonneg_rows([_scaled_int_values(values)])
        assert isinstance(counts, list)
        expected = len(naive_nonneg_masks(values))
        assert counts == [expected]
        s = NumberSequence.of(values, len(values) - 1)
        assert enumerate_nonneg(s, with_family=False).count == expected

    def test_batch_keys_past_guard_although_each_row_fits(self):
        # span = 4 * peak + 1 fits once, but two rows' keys reach 2 * span.
        peak = (1 << 59) + 3
        rows = [[peak, -peak, 3, -3], [-peak, peak - 1, 1, 0], [peak, 0, -peak, -1]]
        for row in rows:
            assert isinstance(_count_nonneg_rows([row]), np.ndarray)
        counts = _count_nonneg_rows(rows)
        assert isinstance(counts, list)
        assert counts == _naive_counts(rows)

    @pytest.mark.parametrize(
        "n, k, t, trials, seed",
        [
            (6, 3, None, 300, 1),
            (11, 5, None, 2 * _COUNT_CHUNK + 17, 2),
            (12, 9, 4, 300, 3),
            (16, 8, None, 64, 4),
            (16, 14, 6, 64, 5),
        ],
    )
    def test_seeded_verify_batches_match_dense_product(self, n, k, t, trials, seed):
        samples = _sample_constrained(n, k, trials, np.random.default_rng(seed), t, 80_000_000)
        expected = product_nonneg_counts(samples)
        assert _count_nonneg_rows(samples).tolist() == expected.tolist()
        if t is None:
            verdict = verify_theorem1(n, k, trials, seed)
        else:
            verdict = verify_theorem2(n, k, t, trials, seed)
        assert verdict.passed
        assert verdict.max_count == int(expected.max())


class TestEnumerate:
    def test_tight_main_example(self):
        report = enumerate_nonneg(NumberSequence.of([1, -1, -1, -1, -1], 2))
        assert report.count == 6 == bound_main(5, 2)
        assert report.tight
        assert report.t == 1
        assert report.family is not None and len(report.family) == 6

    def test_refined_example(self):
        report = enumerate_nonneg(NumberSequence.of([1, 0, -1, -1, -1], 3))
        assert report.count == 10 == bound_refined(5, 3, 2)
        assert report.t == 2
        assert not report.tight  # bound field is the t-free bound, here 12

    def test_all_negative(self):
        report = enumerate_nonneg(NumberSequence.of([-1, -2, -3], 1))
        assert report.count == 1
        assert report.family.members == (0,)

    def test_zero_heavy_example(self):
        report = enumerate_nonneg(NumberSequence.of([0, 0, 0, 0, -1, -1], 4))
        assert report.count == 16 == bound_refined(6, 4, 4)
        assert report.t == 4

    def test_family_matches_oracle(self):
        rng = random.Random(12)
        checked = 0
        while checked < 120:
            n = rng.randint(2, 8)
            k = rng.randint(1, n)
            values = [rng.randint(-6, 6) for _ in range(n)]
            s = NumberSequence.of(values, k)
            if not s.constraint_ok:
                continue
            checked += 1
            report = enumerate_nonneg(s)
            assert list(report.family.members) == naive_nonneg_masks(values)
            assert report.count == len(report.family)

    def test_empty_set_always_counted(self):
        report = enumerate_nonneg(NumberSequence.of([-5, -5], 1), with_family=False)
        assert report.count >= 1
        assert report.family is None

    def test_guards(self):
        with pytest.raises(ValueError):
            enumerate_nonneg(NumberSequence.of([1, 1, -1], 1))
        with pytest.raises(ValueError):
            enumerate_nonneg(NumberSequence.of([-1] * 21, 21))

    def test_fractional_values(self):
        s = NumberSequence.of(["1/2", "-1/3", "-1/3", "-1/3"], 2)
        report = enumerate_nonneg(s)
        assert list(report.family.members) == naive_nonneg_masks(s.values)


class TestExtremal:
    def test_values(self):
        assert extremal_construction(5, 3, 2).values == (1, 0, -1, -1, -1)
        assert extremal_construction(4, 3, 1).values == (2, -1, -1, -1)

    def test_meets_refined_bound(self):
        for n in range(2, 11):
            for k in range(1, n):
                for t in range(1, k + 1):
                    s = extremal_construction(n, k, t)
                    count = enumerate_nonneg(s, with_family=False).count
                    assert count == bound_refined(n, k, t)

    def test_guards(self):
        with pytest.raises(ValueError):
            extremal_construction(5, 5, 1)
        with pytest.raises(ValueError):
            extremal_construction(5, 3, 0)
        with pytest.raises(ValueError):
            extremal_construction(5, 3, 4)


class TestStructure:
    def test_extremal_certified(self):
        report = classify_nonneg_structure(extremal_construction(6, 4, 2))
        assert report.certified
        assert report.t == 2
        assert report.witness is None
        count = enumerate_nonneg(extremal_construction(6, 4, 2), with_family=False).count
        assert report.top_form_count + report.zero_block_count == count

    def test_zero_sequence_certified(self):
        report = classify_nonneg_structure(NumberSequence.of([0, 0, -1], 2))
        assert report.certified
        assert report.t == 2
        assert report.top_form_count == 2  # {1}, {1,2}
        assert report.zero_block_count == 2  # {}, {2}

    def test_violation_witnessed(self):
        # {2,3} sums to 0 without position 1 and leaves the block {2}
        report = classify_nonneg_structure(NumberSequence.of([1, 1, -1, -3], 3))
        assert not report.certified
        assert report.witness == Subset.of([2, 3], 4)

    def test_order_is_stable_descending(self):
        report = classify_nonneg_structure(NumberSequence.of([-5, 2, 0, 2], 3))
        assert report.order == (2, 4, 3, 1)


class TestVerifyTheorem1:
    def test_small_pass(self):
        verdict = verify_theorem1(4, 3, trials=100, seed=7)
        assert verdict.passed
        assert verdict.bound == 8
        assert verdict.extremal_count == 8
        assert verdict.extremal_tight
        assert verdict.max_count <= 8
        assert verdict.counterexample is None

    def test_deterministic_per_seed(self):
        a = verify_theorem1(6, 2, trials=150, seed=42)
        b = verify_theorem1(6, 2, trials=150, seed=42)
        assert a == b

    def test_zero_trials_checks_extremal_only(self):
        verdict = verify_theorem1(8, 3, trials=0, seed=0)
        assert verdict.passed
        assert verdict.max_count == 0

    def test_guards(self):
        with pytest.raises(ValueError):
            verify_theorem1(5, 5, trials=10, seed=0)  # k = n is degenerate
        with pytest.raises(ValueError):
            verify_theorem1(17, 2, trials=10, seed=0)
        with pytest.raises(ValueError):
            verify_theorem1(6, 2, trials=-1, seed=0)

    def test_sampling_budget_exhaustion(self):
        with pytest.raises(SamplingError) as exc:
            verify_theorem1(12, 2, trials=1_000_000, seed=0, max_draws=1 << 14)
        message = str(exc.value)
        assert "(n=12, k=2) is a valid cell" in message
        assert "rejection sampler used up its draw budget" in message
        with pytest.raises(SamplingError, match=r"\(n=12, k=6, t=6\) is a valid cell"):
            verify_theorem2(12, 6, 6, trials=1_000_000, seed=0, max_draws=1 << 14)


class TestVerifyTheorem2:
    def test_small_pass(self):
        verdict = verify_theorem2(5, 3, 2, trials=200, seed=3)
        assert verdict.passed
        assert verdict.bound == 10
        assert verdict.extremal_tight
        assert verdict.max_count <= 10

    def test_t_guard(self):
        with pytest.raises(ValueError):
            verify_theorem2(5, 3, 0, trials=10, seed=0)
        with pytest.raises(ValueError):
            verify_theorem2(5, 3, 4, trials=10, seed=0)


class TestDichotomy:
    def test_k_eq_n_minus_1_count_is_exactly_half(self):
        # Integer values with total sum -1: each subset/complement pair
        # contributes exactly one nonnegative side.
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(2, 10)
            head = [rng.randint(-4 * n, 4 * n) for _ in range(n - 1)]
            values = head + [-1 - sum(head)]
            s = NumberSequence.of(values, n - 1)
            assert s.constraint_ok
            report = enumerate_nonneg(s, with_family=False)
            assert report.count == 1 << (n - 1)

    def test_refined_bound_collapses_there(self):
        for n in range(3, 14):
            for t in range(1, n):
                assert bound_refined(n, n - 1, t) == 1 << (n - 1)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-10, 10), min_size=n, max_size=n),
            st.integers(1, n),
        )
    )
)
def test_counts_never_exceed_bounds(args):
    values, k = args
    s = NumberSequence.of(values, k)
    if not s.constraint_ok or k == s.n:
        return
    report = enumerate_nonneg(s, with_family=False)
    assert report.count <= bound_main(s.n, k)
    if report.t >= 1:
        assert report.count <= bound_refined(s.n, k, report.t)


class TestSequenceFiles:
    def test_roundtrip(self, tmp_path):
        s = NumberSequence.of([1, "1/2", "-3/4", -2], 2)
        text = render_sequence(s)
        assert parse_sequence(text) == s
        path = tmp_path / "seq.txt"
        path.write_text(text, encoding="utf-8")
        assert read_sequence_file(str(path)) == s

    def test_comments_and_blanks_ignored(self):
        text = "# header comment\n3 2\n\n1\n-1\n# trailing\n-1\n"
        assert parse_sequence(text) == NumberSequence.of([1, -1, -1], 2)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3\n1\n-1\n-1\n",
            "x y\n",
            "3 2\n1\n-1\n",
            "2 1\n1\nabc\n",
            "2 1\n1\n1/0\n",
            "2 0\n1\n-1\n",
        ],
    )
    def test_bad_files_rejected(self, text):
        from nonnegsets.setcore import FileFormatError

        with pytest.raises(FileFormatError):
            parse_sequence(text)
