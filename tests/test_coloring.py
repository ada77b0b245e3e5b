"""Unit tests for repro.partition.coloring."""


from repro.core import Lattice, Model, ReactionType
from repro.partition.coloring import (
    chunk_count_bounds,
    clique_lower_bound,
    conflict_graph,
    greedy_partition,
)


class TestConflictGraph:
    def test_node_count(self, ziff):
        g = conflict_graph(Lattice((6, 6)), ziff)
        assert len(g) == 36

    def test_degree_matches_difference_set(self, ziff):
        # every site conflicts with the 12 sites at L1 distance <= 2
        g = conflict_graph(Lattice((10, 10)), ziff)
        assert {len(nbrs) for nbrs in g} == {12}
        # symmetric: t conflicts with s iff s conflicts with t
        assert all(s in g[t] for s, nbrs in enumerate(g) for t in nbrs)

    def test_onsite_model_edgeless(self, small_lattice):
        m = Model(["*", "A"], [ReactionType("ads", [((0, 0), "*", "A")], 1.0)])
        g = conflict_graph(small_lattice, m)
        assert sum(len(nbrs) for nbrs in g) == 0


class TestGreedyPartition:
    def test_validated(self, ziff):
        p = greedy_partition(Lattice((10, 10)), ziff)
        assert p.is_conflict_free(ziff)

    def test_at_least_lower_bound(self, ziff):
        p = greedy_partition(Lattice((10, 10)), ziff)
        assert p.m >= clique_lower_bound(ziff)

    def test_flat_order_needs_ten_chunks_on_10x10(self, ziff):
        # Fig. 4: generic greedy colouring needs 10 chunks, the
        # constructive tiling 5
        assert greedy_partition(Lattice((10, 10)), ziff).m == 10


class TestCliqueBound:
    def test_ziff_is_five(self, ziff):
        assert clique_lower_bound(ziff) == 5

    def test_onsite_model_is_one(self):
        m = Model(["*", "A"], [ReactionType("ads", [((0, 0), "*", "A")], 1.0)])
        assert clique_lower_bound(m) == 1

    def test_1d_pair_model(self):
        hop = Model(
            ["*", "A"],
            [ReactionType("r", [((0,), "A", "*"), ((1,), "*", "A")], 1.0)],
        )
        # neighborhood {0, 1}: sites 0,1,2 pairwise conflict -> bound 3?
        # differences of {0,1} are {-1, 1}; only adjacent sites conflict,
        # so the largest clique is an edge: bound 2
        assert clique_lower_bound(hop) == 2

    def test_ising_five_site_patterns(self):
        from repro.models import ising_model_2d

        m = ising_model_2d(beta=0.5)
        # the 5-site cross conflicts out to L1 distance 2: contains the
        # 13-site ball? the max clique is larger than the pair models'
        assert clique_lower_bound(m) >= 5

    def test_bounds_consistent(self, ziff):
        lo, hi = chunk_count_bounds(Lattice((10, 10)), ziff)
        assert lo == 5
        assert hi >= lo


class TestDegenerateLattices:
    """Colouring-based partitions on 1xN strips and misaligned sides."""

    def test_strip_conflict_graph_is_circulant(self, ziff):
        # on a 1xN strip vertical offsets wrap onto the site itself;
        # what remains are the horizontal distance-1 and -2 conflicts
        g = conflict_graph(Lattice((1, 9)), ziff)
        assert {len(nbrs) for nbrs in g} == {4}

    def test_tiny_strip_conflict_graph_complete(self, ziff):
        g = conflict_graph(Lattice((1, 5)), ziff)
        # 10 edges, each listed at both ends
        assert sum(len(nbrs) for nbrs in g) == 2 * (5 * 4 // 2)

    def test_greedy_on_misaligned_strip_passes_linter(self, ziff):
        from repro.lint import lint_partition

        p = greedy_partition(Lattice((1, 7)), ziff)
        report = lint_partition(p, ziff)
        assert report.ok(strict=True), report.render()

    def test_greedy_on_7x7_passes_linter(self, ziff):
        from repro.lint import lint_partition

        p = greedy_partition(Lattice((7, 7)), ziff)
        assert lint_partition(p, ziff).ok(strict=True)
        # the five-chunk tiling cannot exist on this shape (wrap), so
        # greedy needs at least the clique bound of chunks
        assert p.m >= clique_lower_bound(ziff)
