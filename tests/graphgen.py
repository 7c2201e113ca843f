"""Graph generators and explicit graph builders for the tests.

Nothing in the package needs these.  The blocked generators build inputs
that the unit and acceptance tests feed to ``nonnegsets.hallflow``.  The
explicit builders enumerate the blocked disjointness graph and the rooted
split graphs edge by edge; the package uses the closed forms instead, and
the tests check those against these oracles.
"""

from __future__ import annotations

import random
from math import gcd
from typing import Iterable

from nonnegsets.hallflow import Edge, PartitionedBipartiteGraph
from nonnegsets.matching import BipartiteGraph, DisjointnessGraphSpec, GiGraphSpec
from nonnegsets.nonneg import NumberSequence
from nonnegsets.setcore import SetFamily, Subset, binomial, masks_by_size, submasks


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


def build_blocked_disjointness_graph(spec: DisjointnessGraphSpec) -> PartitionedBipartiteGraph:
    """The disjointness graph D(m, r), partitioned by subset size: block i holds all i-subsets.

    Ordinals follow mask order inside each block.  Each nonempty block pair
    is bi-regular with degrees C(m-i, j) on the A side and C(m-j, i) on the
    B side, so the blocked reduction applies.
    """
    m, r = spec.m, spec.r
    sizes = tuple(binomial(m, i) for i in range(1, r + 1))
    position: dict[int, tuple[int, int]] = {}
    counters = [0] * (r + 1)
    for mask in masks_by_size(m, 1, r):
        size = mask.bit_count()
        position[mask] = (size - 1, counters[size])
        counters[size] += 1
    edges = []
    for s_mask, s_pos in position.items():
        s_size = s_mask.bit_count()
        comp = ((1 << m) - 1) & ~s_mask
        for t_mask in submasks(comp):
            t_size = t_mask.bit_count()
            if 1 <= t_size <= r and s_size + t_size >= r + 1:
                edges.append((s_pos, position[t_mask]))
    return PartitionedBipartiteGraph.of(sizes, sizes, edges)


def build_gi_graph(spec: GiGraphSpec) -> BipartiteGraph:
    """Left vertices A u S, right vertices B u T; edge iff S, T disjoint and |S|+|T| > k-t.

    The two roots (S or T empty) are always isolated: an edge needs
    |S| + |T| >= k - t + 1 while each tail has at most k - t elements.
    """
    tail_mask = ((1 << spec.n) - 1) ^ ((1 << spec.t) - 1)
    # Masks S inside {t+1, ..., n} with |S| <= k - t, ascending.
    tails = sorted(m for m in submasks(tail_mask) if m.bit_count() <= spec.k - spec.t)
    left = tuple(Subset(spec.a_mask | s, spec.n) for s in tails)
    right = tuple(Subset(spec.b_mask | t_mask, spec.n) for t_mask in tails)
    index_of = {t_mask: i for i, t_mask in enumerate(tails)}
    need = spec.k - spec.t + 1
    adj = []
    for s_mask in tails:
        row = []
        s_size = s_mask.bit_count()
        comp = tail_mask & ~s_mask
        for t_mask in submasks(comp):
            if s_size + t_mask.bit_count() >= need and t_mask in index_of:
                row.append(index_of[t_mask])
        row.sort()
        adj.append(tuple(row))
    return BipartiteGraph(left=left, right=right, adj=tuple(adj))


def gi_family_of_nonneg_vertices(spec: GiGraphSpec, s: NumberSequence) -> SetFamily:
    """The nonnegative vertices of one split graph, as a family over [n] (sorted input)."""
    ordered = s.sorted_desc()
    graph = build_gi_graph(spec)
    members = [v for v in graph.left if ordered.subset_sum(v) >= 0]
    members.extend(v for v in graph.right if ordered.subset_sum(v) >= 0)
    return SetFamily.of(spec.n, members)
