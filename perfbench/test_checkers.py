"""The benchmark's checkers accept right answers and reject corrupted ones.

    python3 -m pytest perfbench/test_checkers.py -q
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkers as ck  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402


def brute_masks(values) -> set[int]:
    n = len(values)
    return {m for m in range(1 << n) if sum(values[i] for i in range(n) if m >> i & 1) >= 0}


@pytest.mark.parametrize("seed", range(20))
def test_meet_in_the_middle_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 11)
    values = [Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(n)]
    assert ck.nonneg_masks(values) == brute_masks(values)
    assert ck.count_nonneg(values) == len(brute_masks(values))


def test_generated_sequences_have_their_promised_counts():
    rng = random.Random(1)
    for n in range(3, 12):
        assert ck.count_nonneg(inputs.sum_minus_one(rng, n)) == 2 ** (n - 1)
        for k in range(1, n):
            for t in range(1, k + 1):
                values = inputs.extremal_scaled(rng, n, k, t)
                assert ck.constraint_holds(values, k)
                assert ck.count_nonneg(values) == ck.bound_refined(n, k, t)
                exact = inputs.exact_t_values(rng, n, k, t)
                assert ck.constraint_holds(exact, k) and sum(v >= 0 for v in exact) == t
            assert ck.constraint_holds(inputs.constrained_values(rng, n, k), k)


def test_count_check_rejects_a_count_off_by_one():
    values = inputs.constrained_values(random.Random(3), 12, 5)
    count = ck.count_nonneg(values)
    result = {"n": 12, "k": 5, "count": count, "bound": ck.bound_main(12, 5),
              "t": sum(v >= 0 for v in values), "tight": count == ck.bound_main(12, 5)}
    workloads._check_count(values, 5)(result)
    with pytest.raises(ck.CheckError):
        workloads._check_count(values, 5)(dict(result, count=count + 1))


def brute_matching(adj) -> int:
    for size in range(len(adj), 0, -1):
        for lefts in itertools.combinations(range(len(adj)), size):
            for rights in itertools.product(*(adj[u] for u in lefts)):
                if len(set(rights)) == size:
                    return size
    return 0


@pytest.mark.parametrize("seed", range(30))
def test_augmenting_path_matcher_matches_brute_force(seed):
    rng = random.Random(seed)
    n_left, n_right = rng.randint(1, 6), rng.randint(1, 6)
    adj = [sorted(rng.sample(range(n_right), rng.randint(0, n_right))) for _ in range(n_left)]
    assert ck.max_matching(adj, n_right) == brute_matching(adj)


def test_matching_validator_rejects_a_non_edge_and_a_repeated_vertex():
    def is_edge(a, b):
        return not a & b and a.bit_count() + b.bit_count() >= 3

    ck.check_matching_pairs([(0b001, 0b110), (0b010, 0b101)], is_edge)
    with pytest.raises(ck.CheckError, match="not an edge"):
        ck.check_matching_pairs([(0b001, 0b110), (0b010, 0b100)], is_edge)
    with pytest.raises(ck.CheckError, match="twice"):
        ck.check_matching_pairs([(0b001, 0b110), (0b001, 0b110)], is_edge)


def small_graph() -> ck.BlockedGraph:
    # A blocks of sizes 2, 1; B blocks of sizes 1, 2; pairs (0, 1) and (1, 0) nonempty.
    edges = [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (0, 0))]
    return ck.BlockedGraph([2, 1], [1, 2], edges)


def test_plan_validator_rejects_a_row_with_the_wrong_sum():
    g = small_graph()
    ck.check_plan([[0, 2], [1, 0]], g)
    with pytest.raises(ck.CheckError, match="row 0 sums"):
        ck.check_plan([[0, 1], [1, 0]], g)
    with pytest.raises(ck.CheckError, match="empty block pair"):
        ck.check_plan([[1, 1], [0, 1]], g)


def test_cut_validator_rejects_a_neighbourhood_that_leaves_u2():
    # A blocks of sizes 3, 1 and B blocks of sizes 2, 2; A0 sees only B0, A1 sees B1.
    edges = [((0, o), (0, p)) for o in range(3) for p in range(2)] + [((1, 0), (1, 0)), ((1, 0), (1, 1))]
    g = ck.BlockedGraph([3, 1], [2, 2], edges)
    ck.check_cut(0b01, 0b01, g)
    with pytest.raises(ck.CheckError, match="outside U2"):
        ck.check_cut(0b11, 0b01, g)
    with pytest.raises(ck.CheckError, match="violate nothing"):
        ck.check_cut(0b01, 0b11, g)


@pytest.mark.parametrize("feasible", [True, False])
def test_generated_graphs_are_as_planted(feasible):
    rng = random.Random(7)
    a_sizes, b_sizes, edges = inputs.blocked_graph(rng, 6, 14, feasible)
    assert ck.BlockedGraph(a_sizes, b_sizes, edges).has_perfect_matching() == feasible


def test_family_checks_reject_corrupted_families():
    upset = [0b011, 0b101, 0b110, 0b111]  # all sets of size >= 2 over [3]
    assert ck.is_upset(upset, 3, 3) and ck.is_intersecting(upset) and ck.is_cross_bounded(upset, 3)
    assert not ck.is_upset(upset[:-1], 3, 3)
    assert not ck.is_intersecting(upset + [0b100])
    assert not ck.is_cross_bounded([0b001, 0b110], 2)


def test_subset_text_round_trips_and_rejects_repeats():
    for mask in (0, 1, 0b1011, 1 << 17):
        assert ck.parse_subset(ck.render_subset(mask)) == mask
    with pytest.raises(ck.CheckError):
        ck.parse_subset("{1,1}")
