import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonnegsets.hallflow import reduce, validate_biregular, weighted_hall_decide
from nonnegsets import matching
from nonnegsets.matching import (
    DisjointnessGraphSpec,
    GiGraphSpec,
    Matching,
    build_disjointness_graph,
    chain_matching,
    chain_partner,
    complement_pairs,
    complement_rule,
    count_cap_per_pair,
    find_perfect_matching,
    hopcroft_karp,
    matching_is_valid,
    near_perfect_matching_gi,
    validate_candidate_rule,
    verify_corollary_hall_blocks,
)
from nonnegsets.nonneg import NumberSequence, enumerate_nonneg, extremal_construction
from nonnegsets.setcore import Subset, binomial, bound_refined, masks_by_size

from graphgen import build_blocked_disjointness_graph, build_gi_graph, gi_family_of_nonneg_vertices
from oracles import hk_pair_count, naive_max_matching


class TestSpecs:
    def test_guards(self):
        with pytest.raises(ValueError):
            DisjointnessGraphSpec(15, 2)
        with pytest.raises(ValueError):
            DisjointnessGraphSpec(4, 0)
        with pytest.raises(ValueError):
            DisjointnessGraphSpec(4, 5)
        DisjointnessGraphSpec(4, 4)  # edgeless but admitted


class TestBuildDisjointness:
    def test_smallest_graph(self):
        g = build_disjointness_graph(DisjointnessGraphSpec(2, 1))
        assert [str(v) for v in g.left] == ["{1}", "{2}"]
        assert g.adj == ((1,), (0,))

    def test_forced_graph_m3_r2(self):
        g = build_disjointness_graph(DisjointnessGraphSpec(3, 2))
        assert len(g.left) == 6
        # every vertex has exactly one neighbor: its complement
        assert all(len(row) == 1 for row in g.adj)
        assert g.adj[0] == (5,)  # {1} - {2,3}
        assert g.adj[2] == (3,)  # {1,2} - {3}

    def test_m_eq_r_is_edgeless(self):
        g = build_disjointness_graph(DisjointnessGraphSpec(3, 3))
        assert g.edge_count() == 0

    def test_edges_respect_size_threshold(self):
        g = build_disjointness_graph(DisjointnessGraphSpec(5, 3))
        for li, row in enumerate(g.adj):
            s = g.left[li]
            for ri in row:
                t = g.right[ri]
                assert not s.mask & t.mask
                assert s.size + t.size >= 4


class TestHopcroftKarp:
    def test_deterministic(self):
        adj = [(0, 1), (0,), (1, 2)]
        assert hopcroft_karp(adj, 3) == hopcroft_karp(adj, 3)
        assert hopcroft_karp(adj, 3)[0] == [1, 0, 2]

    def test_empty_sides(self):
        assert hopcroft_karp([], 3) == ([], [-1, -1, -1])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_size_matches_exhaustive_search(self, data):
        n_left = data.draw(st.integers(0, 6))
        n_right = data.draw(st.integers(1, 6))
        adj = [
            tuple(sorted(data.draw(st.sets(st.integers(0, n_right - 1)))))
            for _ in range(n_left)
        ]
        match_l, match_r = hopcroft_karp(adj, n_right)
        size = sum(1 for v in match_l if v != -1)
        assert size == naive_max_matching(adj, n_right)
        for u, v in enumerate(match_l):
            if v != -1:
                assert match_r[v] == u
                assert v in adj[u]
        assert sum(1 for u in match_r if u != -1) == size


class TestPerfectMatching:
    def test_exists_iff_m_exceeds_r(self):
        for m in range(1, 7):
            for r in range(1, m + 1):
                outcome = find_perfect_matching(DisjointnessGraphSpec(m, r))
                assert outcome.perfect == (m >= r + 1)

    def test_forced_matching_is_complementation(self):
        outcome = find_perfect_matching(DisjointnessGraphSpec(3, 2))
        assert outcome.perfect
        for s, t in outcome.matching.pairs:
            assert t == s.complement()

    def test_m6_r3_regression(self):
        # 41 vertices per side; augmenting paths here get long enough to
        # catch unwind bookkeeping mistakes in the iterative search
        outcome = find_perfect_matching(DisjointnessGraphSpec(6, 3))
        assert outcome.perfect
        assert len(outcome.matching) == 6 + 15 + 20

    def test_outcome_is_structurally_valid(self):
        spec = DisjointnessGraphSpec(5, 2)
        graph = build_disjointness_graph(spec)
        outcome = find_perfect_matching(spec)
        assert matching_is_valid(graph, outcome.matching)

    def test_degenerate_outcome_lists_all_vertices(self):
        outcome = find_perfect_matching(DisjointnessGraphSpec(2, 2))
        assert not outcome.perfect
        assert len(outcome.matching) == 0
        assert len(outcome.unsaturated_left) == 3

    def test_repeat_runs_identical(self):
        spec = DisjointnessGraphSpec(5, 3)
        assert find_perfect_matching(spec) == find_perfect_matching(spec)


class TestBlockedVariant:
    def test_block_sizes(self):
        g = build_blocked_disjointness_graph(DisjointnessGraphSpec(5, 2))
        assert g.a_sizes == (5, 10)
        assert g.b_sizes == (5, 10)

    def test_biregular_with_binomial_degrees(self):
        for m, r in [(3, 2), (6, 2), (5, 3)]:
            g = build_blocked_disjointness_graph(DisjointnessGraphSpec(m, r))
            report = validate_biregular(g)
            assert report.ok
            for i in range(1, r + 1):
                for j in range(1, r + 1):
                    if r + 1 <= i + j <= m:
                        expected = (binomial(m - i, j), binomial(m - j, i))
                    else:
                        expected = (0, 0)
                    assert report.degrees[i - 1][j - 1] == expected

    def test_matches_flat_graph_edge_count(self):
        flat = build_disjointness_graph(DisjointnessGraphSpec(5, 2))
        blocked = build_blocked_disjointness_graph(DisjointnessGraphSpec(5, 2))
        assert len(blocked.edges) == flat.edge_count()


class TestCorollaryHall:
    def test_wide_case(self):
        report = verify_corollary_hall_blocks(DisjointnessGraphSpec(6, 2))
        assert report.case == "wide"
        assert report.all_hold
        assert report.generic_verdict.holds
        demands = [(q.demand, q.supply) for q in report.inequalities]
        assert demands == [(6, 15), (21, 21)]

    def test_narrow_case_exact_values(self):
        report = verify_corollary_hall_blocks(DisjointnessGraphSpec(4, 3))
        assert report.case == "narrow"
        assert report.all_hold
        by_interval = {(q.lo, q.hi): (q.demand, q.supply) for q in report.inequalities}
        assert by_interval == {
            (1, 1): (4, 4),
            (1, 2): (10, 10),
            (1, 3): (14, 14),
            (2, 2): (6, 6),
            (2, 3): (10, 10),
            (3, 3): (4, 4),
        }

    def test_degenerate_case(self):
        report = verify_corollary_hall_blocks(DisjointnessGraphSpec(3, 3))
        assert report.case == "degenerate"
        assert not report.all_hold
        assert not report.generic_verdict.holds
        assert report.inequalities == ()

    def test_interval_checks_agree_with_generic_verdict(self):
        for m in range(1, 10):
            for r in range(1, m + 1):
                report = verify_corollary_hall_blocks(DisjointnessGraphSpec(m, r))
                assert report.all_hold == report.generic_verdict.holds == (m > r)

    def test_closed_form_matches_explicit_blocked_graph(self):
        for m in range(1, 11):
            for r in range(1, m + 1):
                spec = DisjointnessGraphSpec(m, r)
                assert verify_corollary_hall_blocks(spec).reduced == reduce(
                    build_blocked_disjointness_graph(spec)
                )

    def test_agrees_with_flow_decision(self):
        for m in range(2, 8):
            for r in range(1, m + 1):
                blocked = build_blocked_disjointness_graph(DisjointnessGraphSpec(m, r))
                assert weighted_hall_decide(blocked) == (m > r)


class TestComplementPairs:
    def test_t3(self):
        pairs = list(complement_pairs(3))
        assert pairs == [(1, 6), (3, 4), (5, 2), (7, 0)]
        for a, b in pairs:
            assert a & 1
            assert a | b == 7 and a & b == 0

    def test_count_is_power_of_two(self):
        for t in range(1, 8):
            assert len(list(complement_pairs(t))) == 1 << (t - 1)

    def test_t_guard(self):
        with pytest.raises(ValueError):
            list(complement_pairs(0))


class TestGiGraphs:
    def test_spec_guards(self):
        with pytest.raises(ValueError):
            GiGraphSpec(5, 3, 2, 2)  # element 1 missing from A
        with pytest.raises(ValueError):
            GiGraphSpec(5, 3, 2, 5)  # bit outside [t]
        with pytest.raises(ValueError):
            GiGraphSpec(5, 5, 2, 1)  # k = n
        with pytest.raises(ValueError):
            GiGraphSpec(5, 3, 4, 1)  # t > k
        with pytest.raises(ValueError):
            GiGraphSpec.from_pair_index(5, 3, 2, 2)

    def test_pair_index_enumeration(self):
        specs = [GiGraphSpec.from_pair_index(6, 4, 3, i) for i in range(4)]
        assert [(s.a_mask, s.b_mask) for s in specs] == [(1, 6), (3, 4), (5, 2), (7, 0)]

    def test_build_5_3_2(self):
        g = build_gi_graph(GiGraphSpec(5, 3, 2, 1))
        assert [str(v) for v in g.left] == ["{1}", "{1,3}", "{1,4}", "{1,5}"]
        assert [str(v) for v in g.right] == ["{2}", "{2,3}", "{2,4}", "{2,5}"]
        assert g.adj[0] == ()  # the root is isolated
        assert g.adj[1] == (2, 3)

    def test_roots_always_isolated(self):
        for t in (1, 2, 3):
            g = build_gi_graph(GiGraphSpec(7, 4, t, 1))
            assert g.adj[0] == ()
            assert all(0 not in row for row in g.adj)

    def test_near_perfect_matching(self):
        m = near_perfect_matching_gi(GiGraphSpec(5, 3, 2, 1))
        assert len(m) == 3
        m2 = near_perfect_matching_gi(GiGraphSpec(6, 4, 2, 1))
        assert len(m2) == 10  # 11 vertices a side, only the root left out

    def test_t_eq_k_trivial_graph(self):
        m = near_perfect_matching_gi(GiGraphSpec(4, 2, 2, 1))
        assert len(m) == 0

    def test_lifted_matching_matches_explicit_split_graph(self):
        for n in range(2, 9):
            for k in range(1, n):
                for t in range(1, k + 1):
                    for a_mask, _ in complement_pairs(t):
                        spec = GiGraphSpec(n, k, t, a_mask)
                        graph = build_gi_graph(spec)
                        match_l, _ = hopcroft_karp(graph.adj, len(graph.right))
                        explicit = tuple(
                            (graph.left[u], graph.right[v]) for u, v in enumerate(match_l) if v != -1
                        )
                        found = near_perfect_matching_gi(spec)
                        assert found.pairs == explicit, spec
                        assert matching_is_valid(graph, found)
                        assert {a for a, _ in found.pairs} == set(graph.left) - {spec.a_core}
                        assert {b for _, b in found.pairs} == set(graph.right) - {spec.b_core}

    def test_matching_deterministic(self):
        spec = GiGraphSpec(7, 4, 2, 1)
        assert near_perfect_matching_gi(spec) == near_perfect_matching_gi(spec)


class TestPairCounts:
    def test_extremal_pair_meets_cap(self):
        s = extremal_construction(5, 3, 2)
        pc = count_cap_per_pair(GiGraphSpec(5, 3, 2, 1), s)
        assert pc.count == pc.cap == 5
        assert pc.within_cap
        assert pc.conflict_edge is None
        assert pc.matched_edges == 3

    def test_extremal_pairs_sum_to_refined_bound(self):
        s = extremal_construction(6, 4, 3)
        total = 0
        for index in range(4):
            pc = count_cap_per_pair(GiGraphSpec.from_pair_index(6, 4, 3, index), s)
            assert pc.count == pc.cap == 5
            total += pc.count
        assert total == bound_refined(6, 4, 3) == 20

    def test_shape_and_t_mismatches_rejected(self):
        s = extremal_construction(5, 3, 2)
        with pytest.raises(ValueError):
            count_cap_per_pair(GiGraphSpec(6, 4, 2, 1), s)
        with pytest.raises(ValueError):
            count_cap_per_pair(GiGraphSpec(5, 3, 1, 1), s)
        bad = NumberSequence.of([2, 2, -1, -1, -1], 3)  # constraint fails
        with pytest.raises(ValueError):
            count_cap_per_pair(GiGraphSpec(5, 3, 2, 1), bad)

    def test_pair_counts_partition_the_nonneg_family(self):
        rng = random.Random(3)
        cases = 0
        while cases < 25:
            n = rng.randint(3, 8)
            k = rng.randint(2, n - 1)
            values = sorted((rng.randint(-3 * n, 3 * n) for _ in range(n)), reverse=True)
            s = NumberSequence.of(values, k)
            t = sum(1 for v in values if v >= 0)
            if not s.constraint_ok or t < 1:
                continue
            cases += 1
            report = enumerate_nonneg(s)
            seen: set[int] = set()
            total = 0
            for index in range(1 << (t - 1)):
                spec = GiGraphSpec.from_pair_index(n, k, t, index)
                pc = count_cap_per_pair(spec, s)
                assert pc.within_cap
                assert pc.conflict_edge is None
                total += pc.count
                masks = set(gi_family_of_nonneg_vertices(spec, s))
                assert not masks & seen  # each set lives in exactly one pair
                seen |= masks
            assert total == report.count
            assert seen == set(report.family.members)


class TestCandidateRules:
    def test_complement_rule_valid_when_r_is_m_minus_1(self):
        report = validate_candidate_rule(DisjointnessGraphSpec(4, 3), complement_rule)
        assert report.valid
        assert report.checked == 4 + 6 + 4

    def test_complement_rule_fails_for_smaller_r(self):
        report = validate_candidate_rule(DisjointnessGraphSpec(4, 2), complement_rule)
        assert not report.valid
        assert report.failure_vertex == Subset.of([1], 4)
        assert "not a right vertex" in report.failure_reason

    def test_collision_detected(self):
        def rule(v: Subset, side: str) -> Subset:
            if v.size == 1:
                others = [e for e in range(1, 5) if e not in v][:2]
                return Subset.of(others, 4)
            return v.complement()

        report = validate_candidate_rule(DisjointnessGraphSpec(4, 2), rule)
        assert not report.valid
        assert report.failure_vertex == Subset.of([4], 4)
        assert "assigned twice" in report.failure_reason

    def test_raising_rule_reported(self):
        def rule(v: Subset, side: str) -> Subset:
            raise KeyError("no image")

        report = validate_candidate_rule(DisjointnessGraphSpec(3, 2), rule)
        assert not report.valid
        assert report.failure_reason.startswith("rule raised KeyError")


def _shifted_partner(mask: int, m: int, r: int, delta: int) -> int:
    """The chain partner with its size shift moved by ``delta``, written out independently."""
    word = [mask >> i & 1 for i in range(m)]
    unmatched: list[int] = []
    pairs = 0
    for i, inside in enumerate(word):
        if not inside:
            unmatched.append(i)
        elif unmatched:
            unmatched.pop()
            pairs += 1
    shift = max(0, max(pairs, m - r) - max(pairs, 1) + delta)
    up = mask | sum(1 << i for i in unmatched[:shift])
    return (1 << m) - 1 - up


def _rule(m: int, r: int, delta: int = 0):
    return lambda v, side: Subset(_shifted_partner(v.mask, m, r, delta), m)


class TestChainMatching:
    def test_perfect_matching_of_explicit_graph(self):
        for m in range(2, 13):
            for r in range(1, m):
                graph = build_disjointness_graph(DisjointnessGraphSpec(m, r))
                pairs = chain_matching(m, r)
                vertex = {v.mask: v for v in graph.left}
                found = Matching(tuple((vertex[s], vertex[t]) for s, t in pairs))
                assert matching_is_valid(graph, found), (m, r)
                # Both sides saturated: every vertex once on the left, once on the right.
                assert [s for s, _ in pairs] == [v.mask for v in graph.left]
                assert sorted(t for _, t in pairs) == [v.mask for v in graph.right]

    def test_edgeless_case_is_empty(self):
        for m in range(1, 8):
            assert chain_matching(m, m) == []
        with pytest.raises(ValueError):
            chain_partner(1, 3, 3)

    def test_equals_complement_rule_at_r_m_minus_1(self):
        for m in range(2, 11):
            for mask in masks_by_size(m, 1, m - 1):
                assert chain_partner(mask, m, m - 1) == complement_rule(Subset(mask, m), "left").mask

    def test_matches_independent_copy(self):
        for m in range(2, 10):
            for r in range(1, m):
                for mask in masks_by_size(m, 1, r):
                    assert chain_partner(mask, m, r) == _shifted_partner(mask, m, r, 0)

    def test_chain_rule_validates_below_m(self):
        # The explicit-graph test above already covers every cell; this runs the rule's own path.
        for m in range(2, 11):
            for r in sorted({1, m // 2, m - 1}):
                report = validate_candidate_rule(DisjointnessGraphSpec(m, r), _rule(m, r))
                assert report.valid, (m, r, report.failure_reason)
                assert report.checked == sum(binomial(m, i) for i in range(1, r + 1))

    def test_shift_off_by_one_fails(self):
        for m in range(2, 10):
            for r in range(1, m):
                assert not validate_candidate_rule(DisjointnessGraphSpec(m, r), _rule(m, r, 1)).valid
                # At r = m - 1 every shift is already 0, so one less changes nothing.
                lower = validate_candidate_rule(DisjointnessGraphSpec(m, r), _rule(m, r, -1))
                assert lower.valid == (r == m - 1), (m, r)

    def test_bad_partner_raises_at_run_time(self, monkeypatch):
        monkeypatch.setattr(matching, "chain_partner", lambda mask, m, r: _shifted_partner(mask, m, r, 1))
        with pytest.raises(RuntimeError, match="chain matching of D"):
            chain_matching(6, 3)
        s = extremal_construction(8, 5, 2)
        with pytest.raises(RuntimeError):
            count_cap_per_pair(GiGraphSpec(8, 5, 2, 1), s)


def _random_values(rng: random.Random, n: int, k: int, t: int) -> list[Fraction]:
    """n values, exactly t of them nonnegative, whose k + 1 largest sum negative.

    The nonnegative values have mixed denominators; the negative ones are integers.
    """
    nonneg = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(t)]
    c = math.ceil((sum(nonneg) + 1) / (k + 1 - t))  # every negative at most -c keeps the constraint
    return nonneg + [Fraction(-rng.randint(c, c + 2)) for _ in range(n - t)]


class TestPairCountOracle:
    def test_every_spec_up_to_n10_equals_hopcroft_karp(self):
        rng = random.Random(27)
        for n in range(2, 11):
            for k in range(1, n):
                for t in range(1, k + 1):
                    extremal = [k - t] + [0] * (t - 1) + [-1] * (n - t)
                    for values in (extremal, _random_values(rng, n, k, t)):
                        s = NumberSequence.of(values, k)
                        for a_mask, _ in complement_pairs(t):
                            pc = count_cap_per_pair(GiGraphSpec(n, k, t, a_mask), s)
                            got = (pc.count, pc.cap, pc.matched_edges, pc.conflict_edge is not None)
                            assert got == hk_pair_count(values, k, t, a_mask), (values, k, a_mask)
