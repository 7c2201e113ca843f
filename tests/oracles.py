"""Independent brute-force reference implementations used to freeze expected values.

Everything here is deliberately naive (itertools over index tuples, full
recursion, dense products) and shares no code with the library paths it
checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np


def naive_nonneg_masks(values: Sequence[Fraction | int]) -> list[int]:
    """Masks of all index sets with nonnegative sum, by combinations."""
    n = len(values)
    masks = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            if sum((Fraction(values[i]) for i in combo), start=Fraction(0)) >= 0:
                masks.append(sum(1 << i for i in combo))
    return sorted(masks)


def product_nonneg_counts(rows: np.ndarray) -> np.ndarray:
    """Per-row nonnegative subset counts of an int64 array, by the dense product.

    Every subset sum of every row is formed at once as rows @ bits.T over
    the rows x 2^n matrix, so memory grows with the number of rows.
    """
    n = rows.shape[1]
    bits = (np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)[None, :]) & 1
    return ((rows @ bits.T) >= 0).sum(axis=1)


def naive_constraint(values: Sequence[Fraction | int], k: int) -> bool:
    """Literal reading: every index set of size > k sums negative."""
    n = len(values)
    for size in range(k + 1, n + 1):
        for combo in itertools.combinations(range(n), size):
            if sum((Fraction(values[i]) for i in combo), start=Fraction(0)) >= 0:
                return False
    return True


def naive_max_matching(adj: Sequence[Sequence[int]], n_right: int) -> int:
    """Exhaustive maximum-matching size for tiny graphs."""
    n_left = len(adj)
    best = 0

    def rec(u: int, used: int, size: int) -> None:
        nonlocal best
        if size + (n_left - u) <= best:
            return
        if u == n_left:
            best = max(best, size)
            return
        rec(u + 1, used, size)
        for v in adj[u]:
            if not used >> v & 1:
                rec(u + 1, used | 1 << v, size + 1)

    rec(0, 0, 0)
    return best


def naive_cross_bounded(masks: Sequence[int], k: int) -> bool:
    """Disjoint members must have sizes summing to at most k."""
    for a, b in itertools.combinations(masks, 2):
        if not a & b and a.bit_count() + b.bit_count() > k:
            return False
    return True


def naive_cross_bound_witness(masks: Sequence[int], k: int) -> tuple[int, int] | None:
    """First disjoint pair (i < j in the given order) whose sizes sum past k, as masks."""
    for i in range(len(masks)):
        a = masks[i]
        for j in range(i + 1, len(masks)):
            b = masks[j]
            if not a & b and bin(a).count("1") + bin(b).count("1") > k:
                return a, b
    return None


def naive_intersecting(masks: Sequence[int]) -> bool:
    return all(a & b for a, b in itertools.combinations(masks, 2))


def naive_is_upset(masks: Sequence[int], n: int, k: int) -> bool:
    present = set(masks)
    for m in masks:
        if m.bit_count() >= k:
            continue
        for b in range(n):
            grown = m | 1 << b
            if grown != m and grown not in present:
                return False
    return True


def brute_max_family(n: int, k: int) -> int:
    """Exhaustive maximum cross-bounded family size; practical for n <= 4."""
    candidates = [m for m in range(1, 1 << n) if m.bit_count() <= k]
    best = 0

    def rec(idx: int, chosen: list[int]) -> None:
        nonlocal best
        if len(chosen) + (len(candidates) - idx) <= best:
            return
        if idx == len(candidates):
            best = max(best, len(chosen))
            return
        cand = candidates[idx]
        ok = all(cand & m or cand.bit_count() + m.bit_count() <= k for m in chosen)
        if ok:
            chosen.append(cand)
            rec(idx + 1, chosen)
            chosen.pop()
        rec(idx + 1, chosen)

    rec(0, [])
    return best


def _hopcroft_karp(adj: Sequence[Sequence[int]], n_right: int) -> list[int]:
    """Left-to-right matches of a maximum matching (-1 for free), by BFS layers and DFS."""
    match_l = [-1] * len(adj)
    match_r = [-1] * n_right
    while True:
        layer = {u: 0 for u in range(len(adj)) if match_l[u] == -1}
        frontier = list(layer)
        reached_free = False
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    w = match_r[v]
                    if w == -1:
                        reached_free = True
                    elif w not in layer:
                        layer[w] = layer[u] + 1
                        nxt.append(w)
            frontier = nxt
        if not reached_free:
            return match_l

        def dfs(u: int) -> bool:
            for v in adj[u]:
                w = match_r[v]
                if w == -1 or (layer.get(w) == layer[u] + 1 and dfs(w)):
                    match_l[u], match_r[v] = v, u
                    return True
            layer[u] = -1  # dead end for this phase
            return False

        for u in range(len(adj)):
            if match_l[u] == -1:
                dfs(u)


@functools.cache
def _split_graph_matching(m: int, cap: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Tails (index tuples over range(m), size <= cap) and a maximum matching of their
    disjointness graph: S -- T when S, T are disjoint and |S| + |T| > cap."""
    tails = [combo for size in range(cap + 1) for combo in itertools.combinations(range(m), size)]
    index = {combo: i for i, combo in enumerate(tails)}
    adj = []
    for s in tails:
        rest = [e for e in range(m) if e not in s]
        adj.append([index[c] for size in range(cap + 1 - len(s), cap + 1) for c in itertools.combinations(rest, size)])
    return tails, _hopcroft_karp(adj, len(tails))


def hk_pair_count(values: Sequence[Fraction | int], k: int, t: int, a_mask: int) -> tuple[int, int, int, bool]:
    """(count, cap, matched edges, conflict?) of one rooted split graph, on its explicit graph.

    Values sorted descending; A and B split positions 0..t-1 by ``a_mask``.
    Left vertices are A plus a tail S of positions t..n-1 with |S| <= k - t,
    right vertices B plus a tail T; the matching is Hopcroft-Karp's.
    """
    ordered = sorted(values, reverse=True)
    n = len(ordered)
    tails, match_l = _split_graph_matching(n - t, k - t)
    a_sum = sum(ordered[i] for i in range(t) if a_mask >> i & 1)
    b_sum = sum(ordered[i] for i in range(t) if not a_mask >> i & 1)
    tail_sums = [sum(ordered[t + e] for e in combo) for combo in tails]
    left_ok = [a_sum + x >= 0 for x in tail_sums]
    right_ok = [b_sum + x >= 0 for x in tail_sums]
    matched = [(u, v) for u, v in enumerate(match_l) if v != -1]
    conflict = any(left_ok[u] and right_ok[v] for u, v in matched)
    cap = sum(math.comb(n - t, i) for i in range(k - t + 1)) + 1
    return sum(left_ok) + sum(right_ok), cap, len(matched), conflict
