"""End-to-end acceptance suite: eleven exact criteria, each with a pinned time budget.

Every test prints one summary line

    [acceptance NN] <name>: PASS|FAIL (<elapsed>s, budget <B>s)

(run pytest with -s to see the lines for passing tests too).  All checks are
exact equalities or zero-violation sweeps; there are no tolerances.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import time
from typing import Callable

from nonnegsets.cli import main

from nonnegsets.ekrshift import (
    BoundedFamily,
    has_property,
    is_upset,
    max_family_oracle,
    push_up,
    theorem1_via_ekr,
    to_upset,
    upset_is_intersecting,
)
from nonnegsets.hallflow import (
    reduce,
    solve_transportation,
    weighted_hall_decide,
)
from nonnegsets.matching import (
    DisjointnessGraphSpec,
    GiGraphSpec,
    count_cap_per_pair,
    find_perfect_matching,
    hopcroft_karp,
)
from nonnegsets.nonneg import (
    NumberSequence,
    enumerate_nonneg,
    extremal_construction,
    verify_theorem1,
)
from nonnegsets.setcore import (
    SetFamily,
    binomial,
    bound_gap,
    bound_main,
    bound_refined,
    masks_by_size,
)

from graphgen import random_blocked_biregular


def _criterion(num: int, name: str, budget_s: float, body: Callable[[], None]) -> None:
    start = time.perf_counter()
    failure: BaseException | None = None
    try:
        body()
    except BaseException as exc:
        failure = exc
    elapsed = time.perf_counter() - start
    ok = failure is None and elapsed <= budget_s
    print(
        f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.2f}s, budget {budget_s:.0f}s)"
    )
    if failure is not None:
        raise failure
    assert elapsed <= budget_s, f"budget exceeded: {elapsed:.2f}s > {budget_s:.0f}s"


def test_01_main_bound_tight():
    def body() -> None:
        for n in range(2, 17):
            for k in range(1, n):
                count = enumerate_nonneg(
                    extremal_construction(n, k, 1), with_family=False
                ).count
                assert count == bound_main(n, k), (n, k, count)

    _criterion(1, "main bound met exactly for n <= 16", 30, body)


def test_02_refined_bound_tight():
    def body() -> None:
        for n in range(2, 15):
            for k in range(1, n):
                for t in range(1, k + 1):
                    count = enumerate_nonneg(
                        extremal_construction(n, k, t), with_family=False
                    ).count
                    assert count == bound_refined(n, k, t), (n, k, t, count)

    _criterion(2, "refined bound met exactly for n <= 14", 60, body)


def test_03_sampled_counts_within_bounds():
    def body() -> None:
        for n in (6, 8, 10, 12):
            for k in sorted({2, n // 2, n - 1}):
                verdict = verify_theorem1(n, k, trials=1000, seed=1000 * n + k)
                assert verdict.passed, (n, k, verdict.counterexample)
                assert verdict.counterexample is None

    _criterion(3, "1000 random sequences per grid cell, zero violations", 120, body)


def test_04_half_count_when_k_is_n_minus_1():
    def body() -> None:
        rng = random.Random(41)
        for _ in range(500):
            n = rng.randint(2, 14)
            head = [rng.randint(-4 * n, 4 * n) for _ in range(n - 1)]
            values = head + [-1 - sum(head)]  # total sum is exactly -1
            s = NumberSequence.of(values, n - 1)
            assert s.constraint_ok
            count = enumerate_nonneg(s, with_family=False).count
            assert count == 1 << (n - 1), (values, count)

    _criterion(4, "500 sum -1 sequences count exactly 2^(n-1)", 30, body)


def test_05_bound_gap_closed_form_and_sign():
    def body() -> None:
        for n in range(3, 31):
            for k in range(2, n):
                for t in range(1, k):
                    gap = bound_gap(n, k, t)
                    assert gap == bound_refined(n, k, t) - bound_refined(n, k, t + 1)
                    closed = (1 << (t - 1)) * (binomial(n - t - 1, k - t) - 1)
                    assert gap == closed, (n, k, t)
                    if k == n - 1:
                        assert gap == 0
                    else:
                        assert gap > 0, (n, k, t)

    _criterion(5, "bound gap identity and strict sign for n <= 30", 5, body)


def test_06_disjointness_graph_matchings():
    def body() -> None:
        for m in range(2, 10):
            for r in range(1, m):
                outcome = find_perfect_matching(DisjointnessGraphSpec(m, r))
                assert outcome.perfect, (m, r)
        for m in range(1, 10):
            outcome = find_perfect_matching(DisjointnessGraphSpec(m, m))
            assert not outcome.perfect
            assert outcome.unsaturated_left  # a concrete witness vertex
            assert len(outcome.matching) == 0

    _criterion(6, "perfect matching iff m > r, for m <= 9", 120, body)


def _expand_blocked(g) -> tuple[list[list[int]], int, int]:
    a_off = [0]
    for sz in g.a_sizes:
        a_off.append(a_off[-1] + sz)
    b_off = [0]
    for sz in g.b_sizes:
        b_off.append(b_off[-1] + sz)
    adj: list[list[int]] = [[] for _ in range(a_off[-1])]
    for (ai, ao), (bj, bo) in g.edges:
        adj[a_off[ai] + ao].append(b_off[bj] + bo)
    return adj, a_off[-1], b_off[-1]


def test_07_flow_decision_equals_direct_matching():
    def body() -> None:
        rng = random.Random(20260815)
        feasible = infeasible = 0
        for _ in range(500):
            g = random_blocked_biregular(rng)
            adj, n_left, n_right = _expand_blocked(g)
            match_l, _ = hopcroft_karp(adj, n_right)
            has_pm = all(v >= 0 for v in match_l)
            decided = weighted_hall_decide(g)
            assert decided == has_pm, g
            h = reduce(g)
            result = solve_transportation(h)
            assert result.feasible == decided
            k, l = len(h.a_sizes), len(h.b_sizes)
            if result.feasible:
                feasible += 1
                d = result.plan.entries
                for i in range(k):
                    assert sum(d[i]) == h.a_sizes[i]
                    for j in range(l):
                        assert d[i][j] >= 0
                        if d[i][j] > 0:
                            assert h.block_adj[i][j]
                for j in range(l):
                    assert sum(d[i][j] for i in range(k)) == h.b_sizes[j]
            else:
                infeasible += 1
                u1 = result.cut_a.elements()
                u2 = set(result.cut_b.elements())
                for i in u1:
                    for j in range(l):
                        if h.block_adj[i - 1][j]:
                            assert j + 1 in u2
                assert sum(h.b_sizes[j - 1] for j in u2) < sum(
                    h.a_sizes[i - 1] for i in u1
                )
        assert feasible >= 100 and infeasible >= 100, (feasible, infeasible)

    _criterion(7, "500 blocked instances: flow decision = direct matching", 120, body)


def test_08_split_graph_accounting():
    def check_sequence(s: NumberSequence) -> None:
        t = sum(1 for v in s.values if v >= 0)
        total = 0
        for index in range(1 << (t - 1)):
            spec = GiGraphSpec.from_pair_index(s.n, s.k, t, index)
            # count_cap_per_pair re-derives the near-perfect matching and
            # raises if anything besides the two roots is unsaturated
            pc = count_cap_per_pair(spec, s)
            assert pc.conflict_edge is None, (s.values, index)
            assert pc.within_cap, (s.values, index)
            total += pc.count
        assert total == enumerate_nonneg(s, with_family=False).count, s.values

    def body() -> None:
        for n in range(2, 11):
            for k in range(1, n):
                for t in range(1, k + 1):
                    check_sequence(extremal_construction(n, k, t))
        rng = random.Random(83)
        cases = 0
        while cases < 60:
            n = rng.randint(3, 10)
            k = rng.randint(1, n - 1)
            s = NumberSequence.of([rng.randint(-4 * n, 4 * n) for _ in range(n)], k)
            if not s.constraint_ok or all(v < 0 for v in s.values):
                continue
            cases += 1
            check_sequence(s)

    _criterion(8, "split graphs: roots-only unsaturated, caps, exact totals", 120, body)


def test_09_search_matches_closed_form():
    def body() -> None:
        for n in range(2, 7):
            for k in range(1, n):
                result = max_family_oracle(n, k)
                closed = sum(binomial(n - 1, i) for i in range(k))
                assert result.size == closed == bound_main(n, k) - 1, (n, k)
                assert len(result.witness) == result.size

    _criterion(9, "exact search equals closed form on all 15 instances", 60, body)


def test_10_compression_invariants():
    def body() -> None:
        for n in range(1, 5):
            for k in range(1, min(3, n) + 1):
                masks = masks_by_size(n, 1, k)
                for size in range(min(4, len(masks)) + 1):
                    for combo in itertools.combinations(masks, size):
                        f = BoundedFamily(SetFamily.from_masks(n, combo), k)
                        holds = has_property(f).holds
                        for i in range(1, n + 1):
                            g = push_up(f, i)
                            assert len(g) == len(f)
                            if holds:
                                assert has_property(g).holds
                        result = to_upset(f)
                        assert is_upset(result.family)
                        assert len(result.family) == len(f)
                        # the intersecting conclusion needs k < n: with k = n
                        # the family {1},{2},{1,2} is a cross-bounded upset
                        if holds and k <= n - 1:
                            assert upset_is_intersecting(result.family)

    _criterion(10, "pushing-up invariants, exhaustive small families", 60, body)


def test_11_mask_native_families(tmp_path):
    seq = tmp_path / "sum_minus_one.seq"
    # 18 integers summing to -1: of each complementary pair of index sets
    # exactly one has a nonnegative sum, so 2^17 sets are listed
    seq.write_text("18 17\n" + "3\n-2\n" * 4 + "1\n0\n0\n0\n" + "-1\n" * 6, encoding="utf-8")

    def body() -> None:
        verdict = theorem1_via_ekr(extremal_construction(16, 8, 1))
        assert verdict.passed and verdict.property_holds and verdict.property_witness is None
        assert verdict.family_size == verdict.cap == bound_main(16, 8) - 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--format", "json", "nonneg", "--input", str(seq), "--dump"]) == 0
        family = json.loads(out.getvalue())["result"]["family"]
        assert len(family) == len(set(family)) == 1 << 17

    _criterion(11, "extremal (16, 8) cross-bounded, n = 18 dump lists 2^17 sets", 5, body)
