"""Weighted Hall feasibility for blocked bi-regular bipartite graphs.

A partitioned bipartite graph carries blocks A_1..A_k on one side and
B_1..B_l on the other.  It is bi-regular when inside every induced block
pair G[A_i, B_j] all A_i-vertices share one degree and all B_j-vertices
share another.  For such graphs, whether a perfect matching exists depends
only on (a) the block sizes and (b) which block pairs carry any edge at
all: it is equivalent to feasibility of the transportation system

    sum_i d_ij = |B_j|,  sum_j d_ij = |A_i|,  d_ij >= 0,
    d_ij = 0 whenever G[A_i, B_j] is empty,

which this module decides exactly by integer max-flow (source -> a_i with
capacity |A_i|, b_j -> sink with capacity |B_j|, a_i -> b_j unbounded where
the pair is nonempty, "unbounded" encoded as total size + 1).  A feasible
instance yields an integer transportation plan; an infeasible one yields a
block cut (U1, U2) with neighborhoods inside U2 and total |B|-weight in U2
smaller than the |A|-weight of U1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .setcore import FileFormatError, Subset

__all__ = [
    "MAX_REDUCED_BLOCKS",
    "PartitionedBipartiteGraph",
    "ReducedGraph",
    "BiregularityReport",
    "HallVerdict",
    "TransportationPlan",
    "TransportResult",
    "validate_biregular",
    "reduce",
    "reduced_hall_condition",
    "solve_transportation",
    "weighted_hall_decide",
    "parse_graph",
    "read_graph_file",
    "render_graph",
]

# Reduced Hall enumeration is 2^k over A-side blocks.
MAX_REDUCED_BLOCKS = 20

Vertex = tuple[int, int]  # (block index, ordinal), both 0-based
Edge = tuple[Vertex, Vertex]


@dataclass(frozen=True)
class PartitionedBipartiteGraph:
    """Bipartite graph with both sides partitioned into sized blocks.

    Vertices are addressed (block, ordinal), 0-based; edges are stored as a
    canonical sorted tuple of ((ai, ao), (bj, bo)) pairs.
    """

    a_sizes: tuple[int, ...]
    b_sizes: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        for label, sizes in (("A", self.a_sizes), ("B", self.b_sizes)):
            for sz in sizes:
                if sz < 1:
                    raise ValueError(f"{label}-block sizes must be positive, got {sz}")
        prev: Edge | None = None
        for edge in self.edges:
            (ai, ao), (bj, bo) = edge
            if not (0 <= ai < len(self.a_sizes) and 0 <= ao < self.a_sizes[ai]):
                raise ValueError(f"edge {edge} has bad A endpoint")
            if not (0 <= bj < len(self.b_sizes) and 0 <= bo < self.b_sizes[bj]):
                raise ValueError(f"edge {edge} has bad B endpoint")
            if prev is not None and edge <= prev:
                raise ValueError("edges must be strictly sorted; use PartitionedBipartiteGraph.of")
            prev = edge

    @classmethod
    def of(
        cls,
        a_sizes: Iterable[int],
        b_sizes: Iterable[int],
        edges: Iterable[Edge],
    ) -> "PartitionedBipartiteGraph":
        return cls(tuple(a_sizes), tuple(b_sizes), tuple(sorted(set(edges))))

    @property
    def total_a(self) -> int:
        return sum(self.a_sizes)

    @property
    def total_b(self) -> int:
        return sum(self.b_sizes)

    def block_pair_edges(self) -> dict[tuple[int, int], list[Edge]]:
        buckets: dict[tuple[int, int], list[Edge]] = {}
        for edge in self.edges:
            buckets.setdefault((edge[0][0], edge[1][0]), []).append(edge)
        return buckets


@dataclass(frozen=True)
class ReducedGraph:
    """Block sizes plus the nonempty-pair adjacency matrix; one vertex per block."""

    a_sizes: tuple[int, ...]
    b_sizes: tuple[int, ...]
    block_adj: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        if len(self.block_adj) != len(self.a_sizes):
            raise ValueError("adjacency must have one row per A block")
        for row in self.block_adj:
            if len(row) != len(self.b_sizes):
                raise ValueError("adjacency must have one column per B block")
        for sizes in (self.a_sizes, self.b_sizes):
            for sz in sizes:
                if sz < 1:
                    raise ValueError("block sizes must be positive")


@dataclass(frozen=True)
class BiregularityReport:
    """Validation verdict; on failure names the first bad block pair and vertex.

    ``degrees[i][j]`` is the (A-side, B-side) degree pair inside G[A_i, B_j],
    (0, 0) for empty pairs; present only when the graph validates.
    """

    ok: bool
    block_pair: tuple[int, int] | None = None
    vertex: tuple[str, int, int] | None = None
    detail: str | None = None
    degrees: tuple[tuple[tuple[int, int], ...], ...] | None = None


def validate_biregular(g: PartitionedBipartiteGraph) -> BiregularityReport:
    """Check per-pair degree uniformity and the double-count identity."""
    buckets = g.block_pair_edges()
    degree_rows: list[list[tuple[int, int]]] = [
        [(0, 0)] * len(g.b_sizes) for _ in g.a_sizes
    ]
    for (i, j) in sorted(buckets):
        edges = buckets[(i, j)]
        a_deg = [0] * g.a_sizes[i]
        b_deg = [0] * g.b_sizes[j]
        for (_, ao), (_, bo) in edges:
            a_deg[ao] += 1
            b_deg[bo] += 1
        d1 = max(a_deg)
        d2 = max(b_deg)
        for ao, deg in enumerate(a_deg):
            if deg != d1:
                return BiregularityReport(
                    ok=False,
                    block_pair=(i, j),
                    vertex=("A", i, ao),
                    detail=f"A-degree {deg} != {d1} inside block pair ({i}, {j})",
                )
        for bo, deg in enumerate(b_deg):
            if deg != d2:
                return BiregularityReport(
                    ok=False,
                    block_pair=(i, j),
                    vertex=("B", j, bo),
                    detail=f"B-degree {deg} != {d2} inside block pair ({i}, {j})",
                )
        if d1 * g.a_sizes[i] != d2 * g.b_sizes[j]:
            # Unreachable once degrees are uniform; kept as a hard check of
            # the double-counting identity d1 |A_i| = d2 |B_j|.
            return BiregularityReport(
                ok=False,
                block_pair=(i, j),
                vertex=None,
                detail=f"double count failed: {d1}*{g.a_sizes[i]} != {d2}*{g.b_sizes[j]}",
            )
        degree_rows[i][j] = (d1, d2)
    return BiregularityReport(ok=True, degrees=tuple(tuple(row) for row in degree_rows))


def reduce(g: PartitionedBipartiteGraph) -> ReducedGraph:
    """Collapse each block to one vertex; adjacency marks nonempty pairs.

    Raises ValueError when the graph is not bi-regular, since the reduction
    only preserves matchability under that hypothesis.
    """
    report = validate_biregular(g)
    if not report.ok:
        raise ValueError(f"graph is not bi-regular: {report.detail}")
    nonempty = set(g.block_pair_edges())
    adj = tuple(
        tuple((i, j) in nonempty for j in range(len(g.b_sizes)))
        for i in range(len(g.a_sizes))
    )
    return ReducedGraph(g.a_sizes, g.b_sizes, adj)


@dataclass(frozen=True)
class HallVerdict:
    """Outcome of the weighted Hall check over all A-block subsets.

    The witness, when present, is the first (by mask order) set X of A-block
    indices whose neighborhood weight falls short; it is a subset of [k]
    rendered 1-based.
    """

    holds: bool
    witness: Subset | None


def reduced_hall_condition(h: ReducedGraph) -> HallVerdict:
    """Check sum of |B_j| over N(X) >= sum of |A_i| over X for every X."""
    k = len(h.a_sizes)
    l = len(h.b_sizes)
    if k > MAX_REDUCED_BLOCKS:
        raise ValueError(f"reduced Hall check capped at {MAX_REDUCED_BLOCKS} A-blocks, got {k}")
    nbr_mask = [0] * k
    for i in range(k):
        for j in range(l):
            if h.block_adj[i][j]:
                nbr_mask[i] |= 1 << j
    for x_mask in range(1, 1 << k):
        a_weight = 0
        n_mask = 0
        rest = x_mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            a_weight += h.a_sizes[i]
            n_mask |= nbr_mask[i]
            rest ^= low
        b_weight = 0
        while n_mask:
            low = n_mask & -n_mask
            b_weight += h.b_sizes[low.bit_length() - 1]
            n_mask ^= low
        if b_weight < a_weight:
            return HallVerdict(holds=False, witness=Subset(x_mask, k))
    return HallVerdict(holds=True, witness=None)


class _Dinic:
    """Blocking-flow max-flow on a small network with integer capacities."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]  # [to, cap, rev]

    def add_edge(self, u: int, v: int, cap: int) -> tuple[int, int]:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])
        return (u, len(self.adj[u]) - 1)

    def flow_through(self, handle: tuple[int, int]) -> int:
        u, idx = handle
        edge = self.adj[u][idx]
        return self.adj[edge[0]][edge[2]][1]

    def _bfs(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v, cap, _ in self.adj[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level if level[t] >= 0 else None

    def _dfs(self, u: int, t: int, pushed: int, level: list[int], it: list[int]) -> int:
        if u == t:
            return pushed
        while it[u] < len(self.adj[u]):
            edge = self.adj[u][it[u]]
            v, cap, rev = edge
            if cap > 0 and level[v] == level[u] + 1:
                d = self._dfs(v, t, min(pushed, cap), level, it)
                if d > 0:
                    edge[1] -= d
                    self.adj[v][rev][1] += d
                    return d
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while (level := self._bfs(s, t)) is not None:
            it = [0] * self.n
            while (pushed := self._dfs(s, t, 1 << 62, level, it)) > 0:
                total += pushed
        return total

    def reachable_from(self, s: int) -> set[int]:
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for v, cap, _ in self.adj[u]:
                if cap > 0 and v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen


@dataclass(frozen=True)
class TransportationPlan:
    """Integer matrix d with row sums |A_i|, column sums |B_j|, zeros on empty pairs."""

    entries: tuple[tuple[int, ...], ...]

    def validate(self, h: ReducedGraph) -> bool:
        k, l = len(h.a_sizes), len(h.b_sizes)
        if len(self.entries) != k or any(len(row) != l for row in self.entries):
            return False
        for i, row in enumerate(self.entries):
            for j, d in enumerate(row):
                if d < 0 or (d > 0 and not h.block_adj[i][j]):
                    return False
        if any(sum(self.entries[i]) != h.a_sizes[i] for i in range(k)):
            return False
        return all(
            sum(self.entries[i][j] for i in range(k)) == h.b_sizes[j] for j in range(l)
        )


@dataclass(frozen=True)
class TransportResult:
    """Either a feasible integer plan or a violating block cut (U1, U2).

    Cut semantics: U1 over A-block indices, U2 over B-block indices, every
    neighbor of U1 lies in U2, and U2's size total is strictly smaller.
    """

    feasible: bool
    plan: TransportationPlan | None
    cut_a: Subset | None
    cut_b: Subset | None


def solve_transportation(h: ReducedGraph) -> TransportResult:
    """Decide the transportation system by max-flow; totals must agree."""
    k, l = len(h.a_sizes), len(h.b_sizes)
    total = sum(h.a_sizes)
    if total != sum(h.b_sizes):
        raise ValueError(f"side totals differ: {total} vs {sum(h.b_sizes)}")
    source, sink = k + l, k + l + 1
    net = _Dinic(k + l + 2)
    for i, sz in enumerate(h.a_sizes):
        net.add_edge(source, i, sz)
    for j, sz in enumerate(h.b_sizes):
        net.add_edge(k + j, sink, sz)
    handles: dict[tuple[int, int], tuple[int, int]] = {}
    unbounded = total + 1
    for i in range(k):
        for j in range(l):
            if h.block_adj[i][j]:
                handles[(i, j)] = net.add_edge(i, k + j, unbounded)
    value = net.max_flow(source, sink)
    if value == total:
        entries = tuple(
            tuple(net.flow_through(handles[(i, j)]) if (i, j) in handles else 0 for j in range(l))
            for i in range(k)
        )
        plan = TransportationPlan(entries)
        if not plan.validate(h):
            raise RuntimeError("max-flow plan fails validation")
        return TransportResult(feasible=True, plan=plan, cut_a=None, cut_b=None)
    reach = net.reachable_from(source)
    cut_a = Subset(sum(1 << i for i in range(k) if i in reach), k)
    cut_b = Subset(sum(1 << j for j in range(l) if k + j in reach), l)
    return TransportResult(feasible=False, plan=None, cut_a=cut_a, cut_b=cut_b)


def weighted_hall_decide(g: PartitionedBipartiteGraph) -> bool:
    """True iff a bi-regular blocked graph with equal side totals has a perfect matching."""
    if g.total_a != g.total_b:
        raise ValueError(f"side totals differ: {g.total_a} vs {g.total_b}")
    return solve_transportation(reduce(g)).feasible


def parse_graph(text: str) -> PartitionedBipartiteGraph:
    """Parse the graph file format.

    Line 1: ``k l`` (block counts).  Line 2: k A-block sizes.  Line 3: l
    B-block sizes.  Every further line is one edge ``i:o j:p`` naming the
    A-vertex (block i, ordinal o) and B-vertex (block j, ordinal p), all
    1-based.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 3:
        raise FileFormatError("graph file needs header, A sizes, and B sizes")
    header = lines[0].split()
    if len(header) != 2:
        raise FileFormatError(f"header must be 'k l', got {lines[0]!r}")
    try:
        k, l = int(header[0]), int(header[1])
        a_sizes = [int(tok) for tok in lines[1].split()]
        b_sizes = [int(tok) for tok in lines[2].split()]
    except ValueError as exc:
        raise FileFormatError(f"non-integer block data: {exc}") from exc
    if len(a_sizes) != k or len(b_sizes) != l:
        raise FileFormatError(f"expected {k} A sizes and {l} B sizes")

    def parse_vertex(token: str, sizes: list[int], side: str) -> Vertex:
        parts = token.split(":")
        if len(parts) != 2:
            raise FileFormatError(f"vertex must be block:ordinal, got {token!r}")
        try:
            block, ordinal = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FileFormatError(f"non-integer vertex {token!r}") from exc
        if not (1 <= block <= len(sizes) and 1 <= ordinal <= sizes[block - 1]):
            raise FileFormatError(f"{side}-vertex {token!r} out of range")
        return (block - 1, ordinal - 1)

    edges = []
    for raw in lines[3:]:
        toks = raw.split()
        if len(toks) != 2:
            raise FileFormatError(f"edge line must have two vertices, got {raw!r}")
        edges.append((parse_vertex(toks[0], a_sizes, "A"), parse_vertex(toks[1], b_sizes, "B")))
    try:
        return PartitionedBipartiteGraph.of(a_sizes, b_sizes, edges)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc


def read_graph_file(path: str) -> PartitionedBipartiteGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def render_graph(g: PartitionedBipartiteGraph) -> str:
    lines = [f"{len(g.a_sizes)} {len(g.b_sizes)}"]
    lines.append(" ".join(str(s) for s in g.a_sizes))
    lines.append(" ".join(str(s) for s in g.b_sizes))
    for (ai, ao), (bj, bo) in g.edges:
        lines.append(f"{ai + 1}:{ao + 1} {bj + 1}:{bo + 1}")
    return "\n".join(lines) + "\n"
