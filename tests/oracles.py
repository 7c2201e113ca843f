"""Independent brute-force reference implementations used to freeze expected values.

Everything here is deliberately naive (itertools over index tuples, full
recursion, dense products) and shares no code with the library paths it
checks.
"""

from __future__ import annotations

import itertools
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
