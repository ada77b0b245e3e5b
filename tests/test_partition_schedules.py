"""Tests for multi-partition schedules in PNDCA and the tiling family."""

import numpy as np
import pytest

from repro.ca import PNDCA
from repro.core import Lattice
from repro.partition import five_chunk_family, five_chunk_partition


@pytest.fixture
def family(small_lattice):
    return five_chunk_family(small_lattice)


class TestFamily:
    def test_four_distinct_partitions(self, family, small_lattice):
        # pairwise different partitions (not mere relabelings): compare
        # the same-chunk relation on a probe pair of sites
        def same_chunk(p, a, b):
            lab = p.chunk_of()
            return lab[a] == lab[b]

        lat = small_lattice
        a = lat.flat_index((0, 0))
        b = lat.flat_index((1, 2))  # same chunk under (1,2), not under (2,1)
        rel = [same_chunk(p, a, b) for p in family]
        assert len(set(rel)) == 2  # the relation differs across the family

    def test_all_conflict_free(self, ziff, family):
        for p in family:
            assert p.find_conflicts(ziff) == [], p.name

    def test_all_five_chunks(self, family):
        assert all(p.m == 5 for p in family)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            five_chunk_family(Lattice((10,)))


class TestSchedules:
    def test_cycle_rotates(self, ziff, small_lattice, family):
        sim = PNDCA(
            ziff, small_lattice, seed=0, partition=family,
            partition_schedule="cycle", strategy="ordered",
        )
        seen = []
        for _ in range(6):
            sim._step_block(until=np.inf)
            seen.append(sim.partition.name)
        assert seen[:4] == [p.name for p in family]
        assert seen[4] == family[0].name  # wrapped around

    def test_random_schedule_runs(self, ziff, small_lattice, family):
        sim = PNDCA(
            ziff, small_lattice, seed=0, partition=family,
            partition_schedule="random",
        )
        res = sim.run(until=3.0)
        assert res.n_executed > 0

    def test_single_partition_unchanged_behaviour(self, ziff, small_lattice):
        p = five_chunk_partition(small_lattice)
        a = PNDCA(ziff, small_lattice, seed=5, partition=p).run(until=3.0)
        b = PNDCA(ziff, small_lattice, seed=5, partition=[p]).run(until=3.0)
        assert np.array_equal(a.final_state.array, b.final_state.array)

    def test_schedule_validation(self, ziff, small_lattice, family):
        with pytest.raises(ValueError, match="schedule"):
            PNDCA(
                ziff, small_lattice, partition=family,
                partition_schedule="fibonacci",
            )
        with pytest.raises(ValueError, match="at least one"):
            PNDCA(ziff, small_lattice, partition=[])

    def test_kinetics_unaffected_statistically(self, ziff, family):
        # rotating partitions must not change the coverage kinetics
        lat = Lattice((10, 10))
        fam = five_chunk_family(lat)
        single = np.mean(
            [
                PNDCA(ziff, lat, seed=s, partition=fam[0])
                .run(until=4.0).final_state.coverage("O")
                for s in range(5)
            ]
        )
        rotating = np.mean(
            [
                PNDCA(ziff, lat, seed=s + 30, partition=fam)
                .run(until=4.0).final_state.coverage("O")
                for s in range(5)
            ]
        )
        assert rotating == pytest.approx(single, abs=0.12)
