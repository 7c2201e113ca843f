"""Independent checkers for the benchmark's outputs.

Nothing here imports the package under test: every expected value is
recomputed from the inputs with plain Python (``math.comb``, a
meet-in-the-middle subset-sum counter, an augmenting-path matcher), or is
a property the method must have.  Each ``check_*`` function raises
``CheckError`` with a reason; it returns nothing on success.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Sequence


class CheckError(AssertionError):
    """An output contradicts an independent computation."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckError(reason)


# ------------------------------------------------------------ arithmetic


def bound_main(n: int, k: int) -> int:
    return sum(math.comb(n - 1, i) for i in range(k)) + 1


def bound_refined(n: int, k: int, t: int) -> int:
    return 2 ** (t - 1) * (sum(math.comb(n - t, i) for i in range(k - t + 1)) + 1)


def constraint_holds(values: Sequence[Fraction], k: int) -> bool:
    if k >= len(values):
        return True
    return sum(sorted(values, reverse=True)[: k + 1]) < 0


def _scaled(values: Sequence[Fraction]) -> list[int]:
    lcm = math.lcm(*(Fraction(v).denominator for v in values))
    return [int(Fraction(v) * lcm) for v in values]


def _half_sums(values: Sequence[int]) -> list[int]:
    """Subset sums of ``values`` indexed by mask over those positions."""
    sums = [0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def count_nonneg(values: Sequence[Fraction]) -> int:
    """Number of index sets (empty included) with sum >= 0, meet in the middle."""
    scaled = _scaled(values)
    h = len(scaled) // 2
    low = _half_sums(scaled[:h])
    high = sorted(_half_sums(scaled[h:]))
    total = len(high)
    return sum(total - bisect_left(high, -a) for a in low)


def nonneg_masks(values: Sequence[Fraction]) -> set[int]:
    """Every mask (bit i = index i+1) whose index set has sum >= 0."""
    scaled = _scaled(values)
    h = len(scaled) // 2
    low = _half_sums(scaled[:h])
    high = sorted((s, m << h) for m, s in enumerate(_half_sums(scaled[h:])))
    high_sums = [s for s, _ in high]
    out: set[int] = set()
    for m, a in enumerate(low):
        for _, hm in high[bisect_left(high_sums, -a) :]:
            out.add(hm | m)
    return out


# ------------------------------------------------------------ set text


def parse_subset(text: str) -> int:
    body = text.strip()
    require(body.startswith("{") and body.endswith("}"), f"bad subset text {text!r}")
    inner = body[1:-1].strip()
    mask = 0
    for part in inner.split(",") if inner else ():
        e = int(part)
        require(e >= 1 and not mask >> (e - 1) & 1, f"bad element {e} in {text!r}")
        mask |= 1 << (e - 1)
    return mask


def render_subset(mask: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


# ------------------------------------------------------------ families


def is_cross_bounded(masks: Iterable[int], k: int) -> bool:
    """Disjoint members A, B always have |A| + |B| <= k."""
    items = [(m, m.bit_count()) for m in masks]
    for i, (a, sa) in enumerate(items):
        for b, sb in items[i + 1 :]:
            if not a & b and sa + sb > k:
                return False
    return True


def is_upset(masks: Iterable[int], n: int, k: int) -> bool:
    """Adding one element to a member of size below k stays in the family."""
    members = set(masks)
    for m in members:
        if m.bit_count() >= k:
            continue
        for i in range(n):
            grown = m | 1 << i
            if grown != m and grown not in members:
                return False
    return True


def is_intersecting(masks: Iterable[int]) -> bool:
    items = list(masks)
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if not a & b:
                return False
    return True


# ------------------------------------------------------------ matchings


def max_matching(adj: Sequence[Sequence[int]], n_right: int) -> int:
    """Size of a maximum bipartite matching by plain augmenting paths (Kuhn)."""
    match_r = [-1] * n_right
    size = 0
    for root in range(len(adj)):
        # Iterative DFS over alternating paths; parent links rebuild the path.
        seen = [False] * n_right
        stack = [(root, iter(adj[root]))]
        via: list[int] = []
        found = False
        while stack and not found:
            u, it = stack[-1]
            for v in it:
                if seen[v]:
                    continue
                seen[v] = True
                if match_r[v] == -1:
                    via.append(v)
                    found = True
                    break
                via.append(v)
                stack.append((match_r[v], iter(adj[match_r[v]])))
                break
            else:
                stack.pop()
                if via:
                    via.pop()
        if found:
            for (u, _), v in zip(stack, via):
                match_r[v] = u
            size += 1
    return size


def check_matching_pairs(pairs: Sequence[tuple[int, int]], is_edge) -> None:
    """Every pair is an edge and no vertex appears twice on its side."""
    lefts = [a for a, _ in pairs]
    rights = [b for _, b in pairs]
    require(len(set(lefts)) == len(lefts), "a left vertex is matched twice")
    require(len(set(rights)) == len(rights), "a right vertex is matched twice")
    for a, b in pairs:
        require(is_edge(a, b), f"pair {render_subset(a)} {render_subset(b)} is not an edge")


# ------------------------------------------------------------ blocked graphs


class BlockedGraph:
    """A blocked bipartite graph as written to a graph file (0-based blocks)."""

    def __init__(self, a_sizes: Sequence[int], b_sizes: Sequence[int], edges: Sequence[tuple]) -> None:
        self.a_sizes = list(a_sizes)
        self.b_sizes = list(b_sizes)
        self.edges = list(edges)  # ((i, o), (j, p))

    def block_pairs(self) -> set[tuple[int, int]]:
        return {(a[0], b[0]) for a, b in self.edges}

    def has_perfect_matching(self) -> bool:
        a_off = [sum(self.a_sizes[:i]) for i in range(len(self.a_sizes))]
        b_off = [sum(self.b_sizes[:j]) for j in range(len(self.b_sizes))]
        adj: list[list[int]] = [[] for _ in range(sum(self.a_sizes))]
        for (i, o), (j, p) in self.edges:
            adj[a_off[i] + o].append(b_off[j] + p)
        total_b = sum(self.b_sizes)
        return len(adj) == total_b and max_matching(adj, total_b) == len(adj)


def check_plan(plan: Sequence[Sequence[int]], g: BlockedGraph) -> None:
    """A transportation plan: row sums |A_i|, column sums |B_j|, support on edges."""
    pairs = g.block_pairs()
    require(len(plan) == len(g.a_sizes), "plan has the wrong number of rows")
    for i, row in enumerate(plan):
        require(len(row) == len(g.b_sizes), f"plan row {i} has the wrong length")
        require(sum(row) == g.a_sizes[i], f"plan row {i} sums to {sum(row)}, not {g.a_sizes[i]}")
        for j, d in enumerate(row):
            require(d >= 0, f"plan entry ({i}, {j}) is negative")
            require(d == 0 or (i, j) in pairs, f"plan uses the empty block pair ({i}, {j})")
    for j, size in enumerate(g.b_sizes):
        col = sum(row[j] for row in plan)
        require(col == size, f"plan column {j} sums to {col}, not {size}")


def check_cut(cut_a: int, cut_b: int, g: BlockedGraph) -> None:
    """A block cut (U1, U2): N(U1) inside U2 and |U2| weight below |U1| weight."""
    require(cut_a != 0, "cut has an empty U1")
    for i, j in g.block_pairs():
        if cut_a >> i & 1:
            require(bool(cut_b >> j & 1), f"neighbour block {j + 1} of U1 lies outside U2")
    weight_a = sum(s for i, s in enumerate(g.a_sizes) if cut_a >> i & 1)
    weight_b = sum(s for j, s in enumerate(g.b_sizes) if cut_b >> j & 1)
    require(weight_b < weight_a, f"cut weights {weight_b} >= {weight_a} violate nothing")
