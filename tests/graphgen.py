"""Blocked bipartite graph generators for the tests.

Nothing in the package needs these: they build inputs that the unit and
acceptance tests feed to ``nonnegsets.hallflow``.
"""

from __future__ import annotations

import random
from math import gcd
from typing import Iterable

from nonnegsets.hallflow import Edge, PartitionedBipartiteGraph


def singleton_partition(
    n_left: int, n_right: int, edges: Iterable[tuple[int, int]]
) -> PartitionedBipartiteGraph:
    """Wrap a plain bipartite graph as singleton blocks (classical Hall setting)."""
    return PartitionedBipartiteGraph.of(
        (1,) * n_left,
        (1,) * n_right,
        (((u, 0), (v, 0)) for u, v in edges),
    )


def random_blocked_biregular(
    rng: random.Random,
    max_blocks: int = 4,
    max_block_size: int = 5,
    empty_prob: float = 0.45,
) -> PartitionedBipartiteGraph:
    """Random bi-regular instance with equal side totals.

    Block counts and sizes are sampled until the side totals match.  Each
    nonempty block pair is a disjoint union of p complete bipartite pieces
    K_{a,b} with p*a = |A_i| and p*b = |B_j| (p a random common divisor,
    vertex groups shuffled), which makes every pair bi-regular by
    construction.
    """
    while True:
        a_sizes = [rng.randint(1, max_block_size) for _ in range(rng.randint(1, max_blocks))]
        b_sizes = [rng.randint(1, max_block_size) for _ in range(rng.randint(1, max_blocks))]
        if sum(a_sizes) == sum(b_sizes):
            break
    edges: list[Edge] = []
    for i, sa in enumerate(a_sizes):
        for j, sb in enumerate(b_sizes):
            if rng.random() < empty_prob:
                continue
            g = gcd(sa, sb)
            divisors = [d for d in range(1, g + 1) if g % d == 0]
            p = rng.choice(divisors)
            a, b = sa // p, sb // p
            a_order = list(range(sa))
            b_order = list(range(sb))
            rng.shuffle(a_order)
            rng.shuffle(b_order)
            for piece in range(p):
                for ao in a_order[piece * a : (piece + 1) * a]:
                    for bo in b_order[piece * b : (piece + 1) * b]:
                        edges.append(((i, ao), (j, bo)))
    return PartitionedBipartiteGraph.of(a_sizes, b_sizes, edges)
