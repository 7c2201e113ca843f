"""Disjointness graphs between subset universes and their perfect matchings.

The central object: for a ground set [m] and a size cap r, take two disjoint
copies of {S : S subset of [m], 1 <= |S| <= r} and join left S to right T
exactly when S and T are disjoint and |S| + |T| >= r + 1.  This graph has a
perfect matching whenever m >= r + 1 and none at all when m = r (it then
has no edges).  Grouped by subset size it is the paper's block graph: block
i holds the C(m, i) i-subsets, and blocks i and j are adjacent iff
r + 1 <= i + j <= m; the corollary's Hall check reads that closed form.

Splitting a number sequence's index set gives a rooted split graph: fix the
first t positions, pick a complement pair (A, B) of subsets of [t] with 1
in A, and connect A u S to B u T (S, T inside {t+1, ..., n}, sizes at most
k - t) under the same disjointness rule on S and T.  That graph is
D(n - t, k - t) with every vertex lifted by its core, plus the two roots A
and B, which no edge reaches.  Its maximum matching is therefore D's perfect
matching, lifted: it saturates everything except the two roots, and no
matched edge can have two nonnegative endpoint sums, which is what caps the
per-pair count of nonnegative sets.

Printed pairs (``matching disjointness --dump``, ``matching gi``) come from
Hopcroft-Karp on the explicit graph: vertices sorted by mask, adjacency
ascending, the augmenting search scanning in that order.  The disjointness
summary and the per-pair counts read the checked symmetric-chain rule,
``chain_partner``, at O(m) per vertex.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .hallflow import HallVerdict, ReducedGraph, reduced_hall_condition
from .nonneg import NumberSequence, _list_subset_sums, _scaled_int_values, constraint_holds
from .setcore import Subset, binomial, masks_by_size, submasks

__all__ = [
    "MAX_UNIVERSE",
    "DisjointnessGraphSpec",
    "GiGraphSpec",
    "BipartiteGraph",
    "Matching",
    "MatchingOutcome",
    "HallInequality",
    "CorollaryHallReport",
    "PairCount",
    "RuleReport",
    "build_disjointness_graph",
    "chain_partner",
    "chain_matching",
    "find_perfect_matching",
    "verify_corollary_hall_blocks",
    "complement_pairs",
    "near_perfect_matching_gi",
    "count_cap_per_pair",
    "hopcroft_karp",
    "matching_is_valid",
    "validate_candidate_rule",
    "complement_rule",
]

# Vertex counts grow like 2^m; enumeration cost like 3^m.
MAX_UNIVERSE = 14


@dataclass(frozen=True)
class DisjointnessGraphSpec:
    """Universe size m and size cap r; r = m is admitted as the edgeless case."""

    m: int
    r: int

    def __post_init__(self) -> None:
        if not 1 <= self.m <= MAX_UNIVERSE:
            raise ValueError(f"m must be in 1..{MAX_UNIVERSE}, got {self.m}")
        if not 1 <= self.r <= self.m:
            raise ValueError(f"r must be in 1..m={self.m}, got {self.r}")


@dataclass(frozen=True)
class BipartiteGraph:
    """Two explicit subset universes plus sorted adjacency (left index -> right indices)."""

    left: tuple[Subset, ...]
    right: tuple[Subset, ...]
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.adj) != len(self.left):
            raise ValueError("adjacency must have one row per left vertex")
        for row in self.adj:
            prev = -1
            for idx in row:
                if not 0 <= idx < len(self.right):
                    raise ValueError(f"right index {idx} out of range")
                if idx <= prev:
                    raise ValueError("adjacency rows must be strictly ascending")
                prev = idx

    def edge_count(self) -> int:
        return sum(len(row) for row in self.adj)


@dataclass(frozen=True)
class Matching:
    """Left-to-right vertex pairs, sorted by the left vertex."""

    pairs: tuple[tuple[Subset, Subset], ...]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class MatchingOutcome:
    perfect: bool
    matching: Matching
    unsaturated_left: tuple[Subset, ...]
    unsaturated_right: tuple[Subset, ...]


def hopcroft_karp(adj: Sequence[Sequence[int]], n_right: int) -> tuple[list[int], list[int]]:
    """Maximum bipartite matching; returns (match_left, match_right), -1 for free.

    Phase BFS seeds free left vertices in index order and the augmenting
    search scans adjacency in list order, so the result is reproducible.
    The augmenting walk is iterative: paths can be thousands of vertices
    long on the larger subset universes.
    """
    n_left = len(adj)
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    inf = n_left + n_right + 1
    dist = [0] * n_left

    def bfs() -> bool:
        q: deque[int] = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = inf
        found = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def augment(root: int) -> bool:
        # Frames: [left vertex, adjacency cursor, right vertex linking to parent].
        stack: list[list[int]] = [[root, 0, -1]]
        while stack:
            frame = stack[-1]
            u, ptr = frame[0], frame[1]
            descended = False
            free_v = -1
            row = adj[u]
            while ptr < len(row):
                v = row[ptr]
                ptr += 1
                w = match_r[v]
                if w == -1:
                    free_v = v
                    break
                if dist[w] == dist[u] + 1:
                    frame[1] = ptr
                    frame[2] = v
                    stack.append([w, 0, -1])
                    descended = True
                    break
            frame[1] = ptr
            if descended:
                continue
            if free_v != -1:
                v = free_v
                while stack:
                    uu = stack.pop()[0]
                    match_l[uu] = v
                    match_r[v] = uu
                    if stack:
                        # The parent reached uu through its own stored via edge.
                        v = stack[-1][2]
                return True
            dist[u] = inf
            stack.pop()
        return False

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                augment(u)
    return match_l, match_r


def matching_is_valid(graph: BipartiteGraph, matching: Matching) -> bool:
    """Structural check: pairs are edges and no vertex repeats on either side."""
    left_index = {s: i for i, s in enumerate(graph.left)}
    right_index = {s: i for i, s in enumerate(graph.right)}
    seen_l: set[int] = set()
    seen_r: set[int] = set()
    for s, t in matching.pairs:
        li = left_index.get(s)
        ri = right_index.get(t)
        if li is None or ri is None or li in seen_l or ri in seen_r:
            return False
        if ri not in graph.adj[li]:
            return False
        seen_l.add(li)
        seen_r.add(ri)
    return True


def _disjoint_edge_targets(
    s_mask: int, m: int, r: int, lo_size: int, index_of: dict[int, int]
) -> list[int]:
    """Indices of right vertices T disjoint from S with |S| + |T| >= r + 1."""
    need = r + 1 - s_mask.bit_count()
    comp = ((1 << m) - 1) & ~s_mask
    out = []
    for t_mask in submasks(comp):
        size = t_mask.bit_count()
        if lo_size <= size <= r and size >= need:
            out.append(index_of[t_mask])
    out.sort()
    return out


def build_disjointness_graph(spec: DisjointnessGraphSpec) -> BipartiteGraph:
    """Both sides are all subsets of [m] with size 1..r, sorted by mask."""
    m, r = spec.m, spec.r
    masks = masks_by_size(m, 1, r)
    vertices = tuple(Subset(mask, m) for mask in masks)
    index_of = {mask: i for i, mask in enumerate(masks)}
    adj = tuple(
        tuple(_disjoint_edge_targets(mask, m, r, 1, index_of)) for mask in masks
    )
    return BipartiteGraph(left=vertices, right=vertices, adj=adj)


def _matching_from_arrays(graph: BipartiteGraph, match_l: list[int]) -> MatchingOutcome:
    pairs = tuple(
        (graph.left[u], graph.right[v]) for u, v in enumerate(match_l) if v != -1
    )
    matched_r = {v for v in match_l if v != -1}
    unsat_l = tuple(graph.left[u] for u, v in enumerate(match_l) if v == -1)
    unsat_r = tuple(graph.right[v] for v in range(len(graph.right)) if v not in matched_r)
    return MatchingOutcome(
        perfect=not unsat_l and not unsat_r,
        matching=Matching(pairs),
        unsaturated_left=unsat_l,
        unsaturated_right=unsat_r,
    )


def chain_partner(mask: int, m: int, r: int) -> int:
    """[m] minus psi(S), S's partner in D(m, r)'s symmetric-chain matching (1 <= r < m).

    As brackets, S's elements read ")" and the rest "(".  The a matched pairs
    size the bottom set of S's chain (de Bruijn, Tengbergen and Kruyswijk),
    and each unmatched "(" turned to ")", leftmost first, steps up the chain:
    psi(S) is max(a, m - r) - max(a, 1) steps up.  ``chain_matching`` checks it.
    """
    if not 1 <= r < m:
        raise ValueError(f"D({m}, {r}) has no perfect matching; need 1 <= r < m")
    opened: list[int] = []  # unmatched "(" positions, ascending
    for i in range(m):
        if not mask >> i & 1:
            opened.append(i)
        elif opened:
            opened.pop()
    a = m - mask.bit_count() - len(opened)
    for i in opened[: max(a, m - r) - max(a, 1)]:
        mask |= 1 << i
    return ((1 << m) - 1) ^ mask


def _edge_fault(s: int, t: int, m: int, r: int, used: set[int]) -> str | None:
    """Why S -> T is not a new matching edge of D(m, r), as a template over {s} and {t}."""
    size = t.bit_count()
    if t < 0 or t >> m or not 1 <= size <= r:
        return "{t} is not a right vertex"
    if s & t or s.bit_count() + size < r + 1:
        return "{s} -> {t} is not an edge"
    return "{t} assigned twice" if t in used else None


def chain_matching(m: int, r: int) -> list[tuple[int, int]]:
    """D(m, r)'s chain matching as (S, T) masks, S ascending; [] at m = r, which has no edges.

    Every partner is checked to be a new edge; a failure raises RuntimeError.
    """
    pairs: list[tuple[int, int]] = []
    used: set[int] = set()
    for s in masks_by_size(m, 1, r) if r < m else ():
        t = chain_partner(s, m, r)
        fault = _edge_fault(s, t, m, r, used)
        if fault is not None:
            raise RuntimeError(f"chain matching of D({m}, {r}): " + fault.format(s=Subset(s, m), t=Subset(t, m)))
        used.add(t)
        pairs.append((s, t))
    return pairs


def find_perfect_matching(spec: DisjointnessGraphSpec) -> MatchingOutcome:
    """Maximum matching of the disjointness graph; perfect iff m >= r + 1."""
    graph = build_disjointness_graph(spec)
    match_l, _ = hopcroft_karp(graph.adj, len(graph.right))
    return _matching_from_arrays(graph, match_l)


@dataclass(frozen=True)
class HallInequality:
    """One interval check: X = blocks lo..hi on the A side, both sides in weight."""

    lo: int
    hi: int
    neighborhood_lo: int
    neighborhood_hi: int
    demand: int
    supply: int

    @property
    def holds(self) -> bool:
        return self.supply >= self.demand

    def label(self) -> str:
        return f"X={{{self.lo}..{self.hi}}}"


@dataclass(frozen=True)
class CorollaryHallReport:
    """The block-level Hall analysis of a disjointness graph.

    ``case`` is "wide" (m >= 2r), "narrow" (r+1 <= m <= 2r-1), or
    "degenerate" (m = r, no edges at all).  The interval inequalities cover
    every tight case for the two nondegenerate regimes;
    ``generic_verdict`` is the independent exhaustive check on the reduced
    graph and must agree.
    """

    m: int
    r: int
    case: str
    inequalities: tuple[HallInequality, ...]
    all_hold: bool
    generic_verdict: HallVerdict
    reduced: ReducedGraph


def _interval_inequality(m: int, r: int, lo: int, hi: int) -> HallInequality:
    nb_lo = r + 1 - hi
    nb_hi = min(r, m - lo)
    demand = sum(binomial(m, i) for i in range(lo, hi + 1))
    supply = sum(binomial(m, j) for j in range(nb_lo, nb_hi + 1))
    return HallInequality(
        lo=lo,
        hi=hi,
        neighborhood_lo=nb_lo,
        neighborhood_hi=nb_hi,
        demand=demand,
        supply=supply,
    )


def verify_corollary_hall_blocks(spec: DisjointnessGraphSpec) -> CorollaryHallReport:
    """Check the size-block Hall condition through its tight interval cases.

    For m >= 2r only the prefixes X = {1..t} matter.  For
    r+1 <= m <= 2r-1 the prefixes plus the intervals X = {s..t} with
    m-r <= s <= t <= r suffice (block-level neighborhoods are intervals, so
    general X reduce to these).  m = r has no nonempty block pair and fails
    outright.  The reduced graph is the block graph's closed form.
    """
    m, r = spec.m, spec.r
    sizes = tuple(binomial(m, i) for i in range(1, r + 1))
    block_adj = tuple(
        tuple(r + 1 <= i + j <= m for j in range(1, r + 1)) for i in range(1, r + 1)
    )
    reduced = ReducedGraph(sizes, sizes, block_adj)
    generic = reduced_hall_condition(reduced)
    if m == r:
        return CorollaryHallReport(
            m=m,
            r=r,
            case="degenerate",
            inequalities=(),
            all_hold=False,
            generic_verdict=generic,
            reduced=reduced,
        )
    wanted: dict[tuple[int, int], HallInequality] = {}
    for t in range(1, r + 1):
        wanted[(1, t)] = _interval_inequality(m, r, 1, t)
    case = "wide"
    if m <= 2 * r - 1:
        case = "narrow"
        for s in range(max(1, m - r), r + 1):
            for t in range(s, r + 1):
                wanted.setdefault((s, t), _interval_inequality(m, r, s, t))
    inequalities = tuple(wanted[key] for key in sorted(wanted))
    all_hold = all(ineq.holds for ineq in inequalities)
    return CorollaryHallReport(
        m=m,
        r=r,
        case=case,
        inequalities=inequalities,
        all_hold=all_hold,
        generic_verdict=generic,
        reduced=reduced,
    )


def complement_pairs(t: int) -> Iterator[tuple[int, int]]:
    """All (a_mask, b_mask) splitting [t] with element 1 on the A side."""
    if t < 1:
        raise ValueError("t must be at least 1")
    full = (1 << t) - 1
    for rest in range(1 << (t - 1)):
        a_mask = (rest << 1) | 1
        yield a_mask, full ^ a_mask


@dataclass(frozen=True)
class GiGraphSpec:
    """Rooted split graph parameters: sequence shape (n, k, t) plus the pair choice.

    ``a_mask`` selects A inside [t] (bit 0, i.e. element 1, must be set);
    B is the complement of A in [t].  Vertices live in [n].
    """

    n: int
    k: int
    t: int
    a_mask: int

    def __post_init__(self) -> None:
        if not 1 <= self.t <= self.k < self.n <= MAX_UNIVERSE:
            raise ValueError(
                f"need 1 <= t <= k < n <= {MAX_UNIVERSE}, got t={self.t} k={self.k} n={self.n}"
            )
        if self.a_mask >> self.t:
            raise ValueError("a_mask must lie inside [t]")
        if not self.a_mask & 1:
            raise ValueError("element 1 must belong to the A side of the pair")

    @classmethod
    def from_pair_index(cls, n: int, k: int, t: int, index: int) -> "GiGraphSpec":
        if not 0 <= index < 1 << (t - 1):
            raise ValueError(f"pair index must be in 0..{(1 << (t - 1)) - 1}, got {index}")
        return cls(n, k, t, (index << 1) | 1)

    @property
    def b_mask(self) -> int:
        return ((1 << self.t) - 1) ^ self.a_mask

    @property
    def a_core(self) -> Subset:
        return Subset(self.a_mask, self.n)

    @property
    def b_core(self) -> Subset:
        return Subset(self.b_mask, self.n)


def near_perfect_matching_gi(spec: GiGraphSpec) -> Matching:
    """Maximum matching of the rooted split graph; saturates all but the two roots.

    The split graph minus its roots is D(n - t, k - t) with S lifted to
    A u (S shifted past [t]) on the left and T to B u (T shifted) on the
    right, so its matching is D's perfect matching, lifted.  For t = k only
    the roots remain and the matching is empty.
    """
    n, t, cap = spec.n, spec.t, spec.k - spec.t
    if cap == 0:
        return Matching(())
    outcome = find_perfect_matching(DisjointnessGraphSpec(n - t, cap))
    if not outcome.perfect:
        raise RuntimeError(
            f"disjointness matching of D({n - t}, {cap}) is not perfect: "
            f"{outcome.unsaturated_left} / {outcome.unsaturated_right} unsaturated"
        )
    return Matching(
        tuple(
            (Subset(spec.a_mask | s.mask << t, n), Subset(spec.b_mask | u.mask << t, n))
            for s, u in outcome.matching.pairs
        )
    )


@dataclass(frozen=True)
class PairCount:
    """Per-pair accounting: nonnegative vertices across both sides of one split graph.

    ``conflict_edge`` would be a matched edge with two nonnegative endpoint
    sums; the matching argument guarantees there is none.
    """

    a_core: Subset
    b_core: Subset
    count: int
    cap: int
    within_cap: bool
    matched_edges: int
    conflict_edge: tuple[Subset, Subset] | None


def count_cap_per_pair(spec: GiGraphSpec, s: NumberSequence) -> PairCount:
    """Count nonnegative vertices of one split graph against its cap.

    The sequence is sorted descending first so that positions 1..t carry its
    nonnegative values; a mismatch with spec.t is rejected.  The matching
    walked is D(n - t, k - t)'s chain matching, lifted by the pair's cores.
    """
    if s.n != spec.n or s.k != spec.k:
        raise ValueError(f"sequence shape ({s.n}, {s.k}) != spec shape ({spec.n}, {spec.k})")
    if not constraint_holds(s):
        raise ValueError("sequence violates the negativity constraint")
    ordered = sorted(s.values, reverse=True)
    t_actual = sum(1 for v in ordered if v >= 0)
    if t_actual != spec.t:
        raise ValueError(f"sequence has {t_actual} nonnegative values, spec says {spec.t}")

    n, t = spec.n, spec.t
    cap = sum(binomial(n - t, i) for i in range(spec.k - t + 1)) + 1
    # A u S is nonnegative iff S's tail sum is at least -sum(A); likewise B u T.
    scaled = _scaled_int_values(ordered)
    a_sum = sum(v for i, v in enumerate(scaled[:t]) if spec.a_mask >> i & 1)
    a_floor, b_floor = -a_sum, a_sum - sum(scaled[:t])
    tails = _list_subset_sums(scaled[t:])  # tails[mask]: the tail values mask picks from positions t+1..n
    pairs = chain_matching(n - t, spec.k - t) if spec.k > t else []
    # The roots plus the lifted pairs are every vertex, each exactly once.
    count = (a_floor <= 0) + (b_floor <= 0)
    conflict = None
    for s_tail, u_tail in pairs:
        left_ok = tails[s_tail] >= a_floor
        right_ok = tails[u_tail] >= b_floor
        count += left_ok + right_ok
        if conflict is None and left_ok and right_ok:
            conflict = (Subset(spec.a_mask | s_tail << t, n), Subset(spec.b_mask | u_tail << t, n))
    return PairCount(
        a_core=spec.a_core,
        b_core=spec.b_core,
        count=count,
        cap=cap,
        within_cap=count <= cap,
        matched_edges=len(pairs),
        conflict_edge=conflict,
    )


@dataclass(frozen=True)
class RuleReport:
    """Validation of a proposed explicit matching rule on a disjointness graph."""

    valid: bool
    checked: int
    failure_vertex: Subset | None
    failure_reason: str | None


CandidateRule = Callable[[Subset, str], Subset]


def complement_rule(vertex: Subset, side: str) -> Subset:
    """The simplest candidate rule: map every S to its complement in [m]."""
    return vertex.complement()


def validate_candidate_rule(spec: DisjointnessGraphSpec, rule: CandidateRule) -> RuleReport:
    """Apply ``rule`` to every left vertex and test for a perfect matching.

    The rule must send every left S to a right vertex adjacent to S,
    injectively.  First failure wins; vertices are scanned in mask order.
    """
    m, r = spec.m, spec.r
    used: set[int] = set()
    checked = 0
    for mask in masks_by_size(m, 1, r):
        s = Subset(mask, m)
        try:
            target = rule(s, "left")
        except Exception as exc:  # a rule may simply not apply
            return RuleReport(False, checked, s, f"rule raised {type(exc).__name__}: {exc}")
        checked += 1
        is_vertex = isinstance(target, Subset) and target.n == m
        fault = _edge_fault(mask, target.mask, m, r, used) if is_vertex else "{t} is not a right vertex"
        if fault is not None:
            return RuleReport(False, checked, s, fault.format(s=s, t=target))
        used.add(target.mask)
    return RuleReport(True, checked, None, None)
