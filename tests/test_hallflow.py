import random
from fractions import Fraction

import pytest

from nonnegsets.hallflow import (
    PartitionedBipartiteGraph,
    ReducedGraph,
    parse_graph,
    read_graph_file,
    reduce,
    reduced_hall_condition,
    render_graph,
    solve_transportation,
    validate_biregular,
    weighted_hall_decide,
)
from nonnegsets.matching import hopcroft_karp
from nonnegsets.setcore import FileFormatError, Subset

from graphgen import random_blocked_biregular, singleton_partition
from oracles import naive_max_matching


def two_blocks_crossed() -> PartitionedBipartiteGraph:
    # A = (3, 3), B = (3, 3); pair (1,2) and pair (2,1) are complete, the
    # diagonal pairs are empty.
    edges = []
    for ao in range(3):
        for bo in range(3):
            edges.append(((0, ao), (1, bo)))
            edges.append(((1, ao), (0, bo)))
    return PartitionedBipartiteGraph.of((3, 3), (3, 3), edges)


def expand_to_plain(g: PartitionedBipartiteGraph) -> tuple[list[list[int]], int, int]:
    """Flatten block vertices to global indices for a direct matching check."""
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


class TestGraphConstruction:
    def test_of_sorts_and_dedups(self):
        g = PartitionedBipartiteGraph.of(
            (1, 1), (2,), [((1, 0), (0, 1)), ((0, 0), (0, 0)), ((1, 0), (0, 1))]
        )
        assert g.edges == (((0, 0), (0, 0)), ((1, 0), (0, 1)))
        assert g.total_a == 2 and g.total_b == 2

    def test_bad_endpoints_rejected(self):
        with pytest.raises(ValueError):
            PartitionedBipartiteGraph.of((1,), (1,), [((0, 1), (0, 0))])
        with pytest.raises(ValueError):
            PartitionedBipartiteGraph.of((1,), (1,), [((0, 0), (2, 0))])
        with pytest.raises(ValueError):
            PartitionedBipartiteGraph.of((0,), (1,), [])

    def test_unsorted_direct_construction_rejected(self):
        with pytest.raises(ValueError):
            PartitionedBipartiteGraph(
                (1, 1), (2,), (((1, 0), (0, 1)), ((0, 0), (0, 0)))
            )


class TestBiregularValidation:
    def test_complete_pairs_validate(self):
        report = validate_biregular(two_blocks_crossed())
        assert report.ok
        assert report.degrees[0][1] == (3, 3)
        assert report.degrees[0][0] == (0, 0)

    def test_degree_violation_named(self):
        # inside pair (0, 0), A-vertex 0 has degree 2 but A-vertex 1 degree 1
        g = PartitionedBipartiteGraph.of(
            (2,), (2,), [((0, 0), (0, 0)), ((0, 0), (0, 1)), ((0, 1), (0, 0))]
        )
        report = validate_biregular(g)
        assert not report.ok
        assert report.block_pair == (0, 0)
        assert report.vertex == ("A", 0, 1)
        assert report.degrees is None

    def test_b_side_violation_named(self):
        # A-degrees uniform (both 1) but B-vertex 1 untouched
        g = PartitionedBipartiteGraph.of(
            (2,), (2,), [((0, 0), (0, 0)), ((0, 1), (0, 0))]
        )
        report = validate_biregular(g)
        assert not report.ok
        assert report.vertex == ("B", 0, 1)

    def test_reduce_requires_biregular(self):
        g = PartitionedBipartiteGraph.of(
            (2,), (2,), [((0, 0), (0, 0)), ((0, 0), (0, 1)), ((0, 1), (0, 0))]
        )
        with pytest.raises(ValueError):
            reduce(g)

    def test_reduce_adjacency(self):
        h = reduce(two_blocks_crossed())
        assert h.block_adj == ((False, True), (True, False))
        assert h.a_sizes == (3, 3)


class TestReducedHall:
    def test_holds_on_crossed_blocks(self):
        verdict = reduced_hall_condition(reduce(two_blocks_crossed()))
        assert verdict.holds and verdict.witness is None

    def test_first_failing_mask_is_witnessed(self):
        h = ReducedGraph((2,), (1,), ((True,),))
        verdict = reduced_hall_condition(h)
        assert not verdict.holds
        assert verdict.witness == Subset.of([1], 1)

    def test_isolated_block_fails(self):
        h = ReducedGraph((1, 2), (3,), ((True,), (False,)))
        verdict = reduced_hall_condition(h)
        assert not verdict.holds
        assert verdict.witness == Subset.of([2], 2)

    def test_block_count_guard(self):
        h = ReducedGraph((1,) * 21, (21,), tuple(((True,),) * 21))
        with pytest.raises(ValueError):
            reduced_hall_condition(h)


class TestTransportation:
    def test_feasible_plan_for_crossed_blocks(self):
        result = solve_transportation(reduce(two_blocks_crossed()))
        assert result.feasible
        assert result.plan.entries == ((0, 3), (3, 0))
        assert result.plan.validate(reduce(two_blocks_crossed()))
        assert result.cut_a is None and result.cut_b is None

    def test_infeasible_yields_cut(self):
        h = ReducedGraph((1, 2), (3,), ((True,), (False,)))
        result = solve_transportation(h)
        assert not result.feasible
        assert result.plan is None
        # U1 = {2} (the isolated A block), neighborhood empty
        assert result.cut_a == Subset.of([2], 2)
        assert result.cut_b == Subset.empty(1)

    def test_cut_semantics(self):
        h = ReducedGraph((2, 2), (1, 3), ((True, False), (True, True)))
        result = solve_transportation(h)
        assert not result.feasible
        u1 = result.cut_a
        u2 = result.cut_b
        # every neighbor of U1 lies in U2 and U2 weighs strictly less
        for i in u1.elements():
            for j in range(2):
                if h.block_adj[i - 1][j]:
                    assert j + 1 in u2
        assert sum(h.b_sizes[j - 1] for j in u2.elements()) < sum(
            h.a_sizes[i - 1] for i in u1.elements()
        )

    def test_total_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_transportation(ReducedGraph((2,), (3,), ((True,),)))
        with pytest.raises(ValueError):
            weighted_hall_decide(
                PartitionedBipartiteGraph.of((2,), (1,), [((0, 0), (0, 0))])
            )

    def test_feasibility_matches_reduced_hall(self):
        rng = random.Random(7)
        for _ in range(150):
            g = random_blocked_biregular(rng)
            h = reduce(g)
            assert solve_transportation(h).feasible == reduced_hall_condition(h).holds


class TestDualityDiagnostic:
    def test_plan_certifies_every_weighting(self):
        # For a feasible plan d and any 0/1 weighting with y_j >= x_i on
        # nonempty pairs, sum |B_j| y_j - sum |A_i| x_i = sum d_ij (y_j - x_i) >= 0.
        h = reduce(two_blocks_crossed())
        plan = solve_transportation(h).plan
        k, l = len(h.a_sizes), len(h.b_sizes)
        for x_mask in range(1 << k):
            x = [Fraction(x_mask >> i & 1) for i in range(k)]
            y = [
                max(
                    (x[i] for i in range(k) if h.block_adj[i][j]),
                    default=Fraction(0),
                )
                for j in range(l)
            ]
            lhs = sum(h.b_sizes[j] * y[j] for j in range(l)) - sum(
                h.a_sizes[i] * x[i] for i in range(k)
            )
            rhs = sum(
                plan.entries[i][j] * (y[j] - x[i]) for i in range(k) for j in range(l)
            )
            assert lhs == rhs >= 0


class TestDecideAgainstDirectMatching:
    def test_random_instances_agree_with_hopcroft_karp(self):
        rng = random.Random(20260815)
        feasible_seen = infeasible_seen = 0
        for _ in range(150):
            g = random_blocked_biregular(rng)
            adj, n_left, n_right = expand_to_plain(g)
            match_l, _ = hopcroft_karp(adj, n_right)
            perfect = all(v >= 0 for v in match_l) and n_left == n_right
            assert weighted_hall_decide(g) == perfect
            if perfect:
                feasible_seen += 1
            else:
                infeasible_seen += 1
        assert feasible_seen and infeasible_seen

    def test_small_instances_agree_with_exhaustive_matching(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_blocked_biregular(rng, max_blocks=2, max_block_size=3)
            adj, n_left, _ = expand_to_plain(g)
            best = naive_max_matching(adj, g.total_b)
            assert weighted_hall_decide(g) == (best == n_left)

    def test_classical_hall_instances(self):
        # C6 as bipartite graph: perfect matching exists
        cycle = singleton_partition(3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])
        assert weighted_hall_decide(cycle)
        # two left vertices forced onto one right vertex
        pinched = singleton_partition(2, 2, [(0, 0), (1, 0)])
        assert not weighted_hall_decide(pinched)


class TestGraphFiles:
    def test_roundtrip(self, tmp_path):
        g = two_blocks_crossed()
        text = render_graph(g)
        assert parse_graph(text) == g
        path = tmp_path / "graph.txt"
        path.write_text(text, encoding="utf-8")
        assert read_graph_file(str(path)) == g

    def test_example_format(self):
        text = "2 1\n1 1\n2\n1:1 1:1\n2:1 1:2\n"
        g = parse_graph(text)
        assert g.a_sizes == (1, 1)
        assert g.b_sizes == (2,)
        assert g.edges == (((0, 0), (0, 0)), ((1, 0), (0, 1)))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "1 1\n1\n",
            "x 1\n1\n1\n",
            "1 1\n1 2\n1\n",
            "1 1\n1\n1\n1:1\n",
            "1 1\n1\n1\n1:2 1:1\n",
            "1 1\n1\n1\n1:1 2:1\n",
            "1 1\n1\n1\na:1 1:1\n",
            "1 1\n0\n0\n",
        ],
    )
    def test_bad_files_rejected(self, text):
        with pytest.raises(FileFormatError):
            parse_graph(text)

    def test_comments_ignored(self):
        text = "# blocked graph\n1 1\n1\n1\n# the single edge\n1:1 1:1\n"
        g = parse_graph(text)
        assert g.edges == (((0, 0), (0, 0)),)
