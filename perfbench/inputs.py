"""Seeded input generators: sequences, blocked graphs and set families.

These share no code with the package under test.  Every generator takes a
``random.Random`` so the same seed yields the same inputs, and each is
built so that the work an operation does on its output depends on the
sizes chosen here, not on the seed: counts, family sizes and edge counts
are fixed by construction while the values, labels and orders vary.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from checkers import render_subset


def constrained_values(rng: random.Random, n: int, k: int) -> list[Fraction]:
    """Random rationals shifted down until the k+1 largest sum negative."""
    denominators = [rng.choice((1, 1, 2, 3, 4)) for _ in range(n)]
    values = [Fraction(rng.randint(-4 * n * q, 4 * n * q), q) for q in denominators]
    top = sum(sorted(values, reverse=True)[: k + 1])
    if top >= 0:
        shift = top // (k + 1) + 1
        values = [v - shift for v in values]
    return values


def sum_minus_one(rng: random.Random, n: int) -> list[Fraction]:
    """Integers with total -1: exactly one of each complementary pair of
    index sets is nonnegative, so there are 2^(n-1) nonnegative sets (k = n-1)."""
    values = [rng.randint(-3 * n, 3 * n) for _ in range(n - 1)]
    values.append(-1 - sum(values))
    rng.shuffle(values)
    return [Fraction(v) for v in values]


def extremal_scaled(rng: random.Random, n: int, k: int, t: int) -> list[Fraction]:
    """(k-t, 0 x (t-1), -1 x (n-t)) times a random positive rational, shuffled;
    its count of nonnegative sets equals bound_refined(n, k, t)."""
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    values = [Fraction(k - t) * scale] + [Fraction(0)] * (t - 1) + [-scale] * (n - t)
    rng.shuffle(values)
    return values


def exact_t_values(rng: random.Random, n: int, k: int, t: int) -> list[Fraction]:
    """Exactly t nonnegative integers, the rest negative, constraint enforced."""
    nonneg = [rng.randint(0, 4 * n) for _ in range(t)]
    neg = [rng.randint(-4 * n, -1) for _ in range(n - t)]
    top = sum(nonneg) + sum(sorted(neg, reverse=True)[: k + 1 - t])
    if top >= 0:
        drop = top // (k + 1 - t) + 1
        neg = [v - drop for v in neg]
    values = [Fraction(v) for v in nonneg + neg]
    rng.shuffle(values)
    return values


def sequence_text(values: Sequence[Fraction], k: int) -> str:
    return f"{len(values)} {k}\n" + "".join(f"{v}\n" for v in values)


def family_text(rng: random.Random, masks: Sequence[int]) -> str:
    lines = [render_subset(m) for m in masks]
    rng.shuffle(lines)
    return "# nonnegative index sets of a constrained sequence\n" + "\n".join(lines) + "\n"


# Divisors of BLOCK_SIZE; a pair split into p pieces of K_{s/p,s/p} has s*s/p edges.
BLOCK_SIZE = 24
PIECES = (1, 2, 3, 4, 6, 8, 12, 24)


def blocked_graph(
    rng: random.Random, blocks: int, pairs: int, feasible: bool
) -> tuple[list[int], list[int], list[tuple[tuple[int, int], tuple[int, int]]]]:
    """A blocked bi-regular graph with equal blocks of BLOCK_SIZE on both sides.

    Feasible instances contain a block-level permutation, so a plan with
    BLOCK_SIZE on it exists.  Infeasible ones plant a Hall violation: a set
    X of A-blocks whose neighbours lie in a set Y with |Y| = |X| - 1.  The
    number of nonempty pairs and, through PIECES, of edges is fixed.
    """
    cells = [(i, j) for i in range(blocks) for j in range(blocks)]
    if feasible:
        perm = list(range(blocks))
        rng.shuffle(perm)
        support = {(i, perm[i]) for i in range(blocks)}
        allowed = cells
    else:
        x = rng.randint(2, blocks // 2)
        xs = set(rng.sample(range(blocks), x))
        ys = set(rng.sample(range(blocks), x - 1))
        allowed = [(i, j) for i, j in cells if i not in xs or j in ys]
        support = set()
    rest = [c for c in allowed if c not in support]
    support |= set(rng.sample(rest, pairs - len(support)))
    edges = []
    for idx, (i, j) in enumerate(sorted(support)):
        p = PIECES[idx % len(PIECES)]
        w = BLOCK_SIZE // p
        a_order = rng.sample(range(BLOCK_SIZE), BLOCK_SIZE)
        b_order = rng.sample(range(BLOCK_SIZE), BLOCK_SIZE)
        for piece in range(p):
            for ao in a_order[piece * w : (piece + 1) * w]:
                for bo in b_order[piece * w : (piece + 1) * w]:
                    edges.append(((i, ao), (j, bo)))
    rng.shuffle(edges)
    sizes = [BLOCK_SIZE] * blocks
    return sizes, list(sizes), edges


def graph_text(a_sizes: Sequence[int], b_sizes: Sequence[int], edges) -> str:
    lines = [f"{len(a_sizes)} {len(b_sizes)}", " ".join(map(str, a_sizes)), " ".join(map(str, b_sizes))]
    lines.extend(f"{i + 1}:{o + 1} {j + 1}:{p + 1}" for (i, o), (j, p) in edges)
    return "\n".join(lines) + "\n"
