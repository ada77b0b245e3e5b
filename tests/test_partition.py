"""Unit tests for repro.partition.partition."""

import numpy as np
import pytest

from repro.core import ReactionType
from repro.lint import LintError, preflight_partition
from repro.partition.conflicts import conflict_witnesses
from repro.partition.partition import Partition


def footprint(offsets):
    """A reaction type touching exactly ``offsets``."""
    return ReactionType("r", [(o, "*", "A") for o in offsets], 1.0)


class TestConflictDisplacements:
    def test_von_neumann(self):
        nb = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]
        d = conflict_witnesses([footprint(nb)])
        assert (0, 0) not in d
        assert (1, 0) in d and (-1, 1) in d and (2, 0) in d
        # difference set of the cross: all |di|+|dj| <= 2 except 0
        expected = {
            (di, dj)
            for di in range(-2, 3)
            for dj in range(-2, 3)
            if 0 < abs(di) + abs(dj) <= 2
        }
        assert set(d) == expected

    def test_single_site(self):
        assert conflict_witnesses([footprint([(0, 0)])]) == {}


class TestPartitionConstruction:
    def test_valid(self, small_lattice):
        half = small_lattice.n_sites // 2
        p = Partition(
            small_lattice,
            [np.arange(half), np.arange(half, small_lattice.n_sites)],
        )
        assert p.m == 2
        assert p.sizes.tolist() == [half, half]

    def test_rejects_overlap(self, small_lattice):
        n = small_lattice.n_sites
        with pytest.raises(ValueError):
            Partition(small_lattice, [np.arange(n), np.array([0])])

    def test_rejects_incomplete_cover(self, small_lattice):
        with pytest.raises(ValueError):
            Partition(small_lattice, [np.arange(small_lattice.n_sites - 1)])

    @pytest.mark.parametrize("extra", [0, -1, "n"])
    def test_duplicate_or_out_of_range_site_is_named(self, small_lattice, extra):
        """The site count matches, so only the coverage check can tell:
        a duplicate, a negative and a too-large site all raise the same
        named error (the engines trust chunk sites from here on)."""
        n = small_lattice.n_sites
        extra = n if extra == "n" else extra
        rest = np.arange(1, n) if extra == -1 else np.arange(n - 1)
        with pytest.raises(ValueError, match="not disjoint or do not cover"):
            Partition(small_lattice, [rest, np.array([extra])])

    def test_rejects_empty_chunk(self, small_lattice):
        n = small_lattice.n_sites
        with pytest.raises(ValueError):
            Partition(small_lattice, [np.arange(n), np.empty(0, dtype=np.intp)])

    def test_chunks_read_only(self, small_lattice):
        p = Partition.single_chunk(small_lattice)
        with pytest.raises(ValueError):
            p.chunks[0][0] = 5

    def test_from_labels(self, small_lattice):
        labels = np.arange(small_lattice.n_sites) % 4
        p = Partition.from_labels(small_lattice, labels)
        assert p.m == 4
        assert np.array_equal(p.chunk_of(), labels)

    def test_from_labels_grid_shaped(self, small_lattice):
        labels = np.zeros(small_lattice.shape, dtype=int)
        labels[5:] = 1
        p = Partition.from_labels(small_lattice, labels)
        assert p.m == 2

    def test_single_chunk_and_singletons(self, small_lattice):
        assert Partition.single_chunk(small_lattice).m == 1
        assert Partition.singletons(small_lattice).m == small_lattice.n_sites

    def test_grid_labels(self, small_lattice):
        p = Partition.single_chunk(small_lattice)
        assert p.grid_labels().shape == small_lattice.shape


class TestNonOverlapRule:
    def test_five_chunk_valid(self, ziff, small_lattice):
        from repro.partition import five_chunk_partition

        p = five_chunk_partition(small_lattice)
        assert p.find_conflicts(ziff) == []

    def test_single_chunk_invalid(self, ziff, small_lattice):
        p = Partition.single_chunk(small_lattice)
        conflicts = p.find_conflicts(ziff)
        assert conflicts
        assert "share chunk 0" in conflicts[0].describe()

    def test_singletons_valid(self, ziff, small_lattice):
        p = Partition.singletons(small_lattice)
        assert p.is_conflict_free(ziff)

    def test_validate_marks_model(self, ziff, small_lattice):
        from repro.partition import five_chunk_partition

        p = five_chunk_partition(small_lattice)
        # computed on the first call, no earlier gate needed
        assert p.is_conflict_free(ziff)
        preflight_partition(p, ziff)
        assert p.is_conflict_free(ziff)
        assert not Partition.single_chunk(small_lattice).is_conflict_free(ziff)

    def test_validate_raises_with_sites(self, ziff, small_lattice):
        p = Partition.single_chunk(small_lattice)
        with pytest.raises(LintError, match="violates the non-overlap rule") as exc:
            preflight_partition(p, ziff)
        assert "share chunk 0" in str(exc.value)

    def test_checkerboard_invalid_for_full_model(self, ziff, small_lattice):
        from repro.partition import checkerboard

        # pairs (1,0) conflict across checkerboard colours
        assert not checkerboard(small_lattice).is_conflict_free(ziff)

    def test_onsite_only_model_any_partition(self, small_lattice):
        from repro.core import Model, ReactionType

        m = Model(
            ["*", "A"], [ReactionType("ads", [((0, 0), "*", "A")], 1.0)]
        )
        # single-site patterns never conflict
        assert Partition.single_chunk(small_lattice).is_conflict_free(m)
