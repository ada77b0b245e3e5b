"""Unit tests for repro.partition.tilings."""

import pytest

from repro.core import Lattice
from repro.partition.tilings import (
    block_partition,
    checkerboard,
    find_modular_tiling,
    five_chunk_partition,
    modular_tiling,
    stripes,
)


class TestModularTiling:
    def test_labels(self):
        lat = Lattice((5, 5))
        p = modular_tiling(lat, 5, (1, 2))
        labels = p.grid_labels()
        assert labels[0].tolist() == [0, 2, 4, 1, 3]
        assert labels[1].tolist() == [1, 3, 0, 2, 4]

    def test_equal_chunks_when_divisible(self):
        p = modular_tiling(Lattice((10, 10)), 5, (1, 2))
        assert set(p.sizes.tolist()) == {20}

    def test_validation(self):
        lat = Lattice((4, 4))
        with pytest.raises(ValueError):
            modular_tiling(lat, 0, (1, 1))
        with pytest.raises(ValueError):
            modular_tiling(lat, 2, (1,))

    def test_1d(self):
        p = modular_tiling(Lattice((9,)), 3, (1,))
        assert p.m == 3
        assert p.sizes.tolist() == [3, 3, 3]


class TestFiveChunk:
    def test_valid_and_optimal(self, ziff):
        lat = Lattice((10, 10))
        p = five_chunk_partition(lat)
        assert p.m == 5
        assert p.find_conflicts(ziff) == []

    def test_wrap_failure_on_bad_side(self, ziff):
        # 12 is not a multiple of 5: the tiling wraps inconsistently
        p = five_chunk_partition(Lattice((12, 12)))
        assert p.find_conflicts(ziff)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            five_chunk_partition(Lattice((10,)))


class TestSearch:
    def test_finds_five_for_ziff(self, ziff):
        m, coeffs = find_modular_tiling(ziff)
        assert m == 5
        # the found tiling must actually be conflict-free on a lattice
        p = modular_tiling(Lattice((2 * m * 5, 2 * m * 5)), m, coeffs)
        assert p.find_conflicts(ziff) == []

    def test_finds_two_for_1d_pairs(self, adsorption_1d):
        from repro.core import Model, ReactionType

        hop = Model(
            ["*", "A"],
            [
                ReactionType("r", [((0,), "A", "*"), ((1,), "*", "A")], 1.0),
                ReactionType("l", [((0,), "A", "*"), ((-1,), "*", "A")], 1.0),
            ],
        )
        m, coeffs = find_modular_tiling(hop)
        assert m == 3  # neighborhood spans {-1,0,1}: difference set {±1, ±2}

    def test_onsite_model(self, adsorption_1d):
        m, _ = find_modular_tiling(adsorption_1d)
        assert m == 2  # no conflicts at all: any tiling works

    def test_raises_when_not_found(self, ziff):
        with pytest.raises(ValueError):
            find_modular_tiling(ziff, max_m=2)


class TestCheckerboardStripes:
    def test_checkerboard_labels(self):
        p = checkerboard(Lattice((4, 4)))
        g = p.grid_labels()
        assert g[0].tolist() == [0, 1, 0, 1]
        assert g[1].tolist() == [1, 0, 1, 0]

    def test_checkerboard_1d(self):
        p = checkerboard(Lattice((6,)))
        assert p.m == 2

    def test_stripes(self):
        p = stripes(Lattice((4, 4)), axis=1, m=2)
        g = p.grid_labels()
        assert g[0].tolist() == [0, 1, 0, 1]
        assert g[1].tolist() == [0, 1, 0, 1]

    def test_stripes_axis_validation(self):
        with pytest.raises(ValueError):
            stripes(Lattice((4, 4)), axis=2)


class TestBlocks:
    def test_1d_blocks(self):
        p = block_partition(Lattice((9,)), (3,))
        assert p.m == 3
        assert p.chunks[0].tolist() == [0, 1, 2]

    def test_1d_blocks_shifted(self):
        p = block_partition(Lattice((9,)), (3,), shift=(1,))
        labels = p.chunk_of()
        # sites 1,2,3 share a block after shifting by one
        assert labels[1] == labels[2] == labels[3]
        assert labels[0] != labels[1]

    def test_2d_blocks(self):
        p = block_partition(Lattice((4, 6)), (2, 3))
        assert p.m == 4
        assert set(p.sizes.tolist()) == {6}

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            block_partition(Lattice((9,)), (2,))

    def test_not_conflict_free_for_pairs(self, ziff):
        p = block_partition(Lattice((10, 10)), (5, 5))
        assert p.find_conflicts(ziff)


class TestDegenerateLattices:
    """Linter behaviour on 1xN strips and sides not divisible by m."""

    def test_strip_aligned_is_conflict_free(self, ziff):
        from repro.lint import lint_partition

        p = five_chunk_partition(Lattice((1, 10)))
        assert p.find_conflicts(ziff) == []
        assert lint_partition(p, ziff).ok(strict=True)

    def test_strip_misaligned_flags_only_wrap_conflicts(self, ziff):
        """1x7 strip: the tiling is sound, the wrap is not — SR002 only."""
        from repro.lint import lint_partition

        p = five_chunk_partition(Lattice((1, 7)))
        report = lint_partition(p, ziff)
        assert not report.ok()
        assert {d.code for d in report} == {"SR002"}

    def test_strip_witnesses_match_enumeration(self, ziff):
        """Symbolic witnesses are real conflicts of the explicit scan."""
        lat = Lattice((1, 7))
        p = five_chunk_partition(lat)
        symbolic = {
            frozenset((c.site_s, c.site_t)) for c in p.find_conflicts(ziff)
        }
        p.tiling = None  # force the enumerative path
        enumerated = {
            frozenset((c.site_s, c.site_t))
            for c in p.find_conflicts(ziff, limit=100)
        }
        assert symbolic and symbolic <= enumerated

    def test_side_not_divisible_by_five(self, ziff):
        p = five_chunk_partition(Lattice((10, 7)))
        conflicts = p.find_conflicts(ziff)
        assert conflicts
        # each counterexample names reactions and the shared cell
        reason = conflicts[0].describe()
        assert "share chunk" in reason and "touch cell" in reason

    def test_tiny_strip_degenerates_to_singletons(self, ziff):
        """On 1x5 every residue is its own chunk — trivially fine."""
        from repro.lint import lint_partition

        p = five_chunk_partition(Lattice((1, 5)))
        assert p.m == 5 and all(s == 1 for s in p.sizes)
        assert lint_partition(p, ziff).ok(strict=True)

    def test_both_sides_misaligned(self, ziff):
        from repro.lint import lint_partition

        p = five_chunk_partition(Lattice((7, 7)))
        report = lint_partition(p, ziff)
        assert {d.code for d in report} == {"SR002"}
        d0 = report.diagnostics[0].data
        assert d0["site_s"] != d0["site_t"]
