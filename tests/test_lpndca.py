"""Unit tests for L-PNDCA."""

import numpy as np
import pytest

from repro.ca import LPNDCA
from repro.core import Lattice
from repro.dmc import RSM
from repro.partition import Partition, five_chunk_partition


@pytest.fixture
def p5(ziff, small_lattice):
    p = five_chunk_partition(small_lattice)
    return p


class TestConstruction:
    def test_L_validation(self, ziff, small_lattice, p5):
        with pytest.raises(ValueError):
            LPNDCA(ziff, small_lattice, partition=p5, L=0)
        with pytest.raises(ValueError):
            LPNDCA(ziff, small_lattice, partition=p5, L="half")

    def test_chunk_selection_validation(self, ziff, small_lattice, p5):
        with pytest.raises(ValueError, match="chunk selection"):
            LPNDCA(ziff, small_lattice, partition=p5, chunk_selection="bogus")

    def test_requires_conflict_free_by_default(self, ziff, small_lattice):
        with pytest.raises(ValueError, match="non-overlap"):
            LPNDCA(
                ziff, small_lattice, partition=Partition.single_chunk(small_lattice)
            )

    def test_rsm_equivalent_fast_path_detected(self, ziff, small_lattice, p5):
        sim = LPNDCA(ziff, small_lattice, partition=p5, L=1)
        assert sim._rsm_equivalent
        sim2 = LPNDCA(ziff, small_lattice, partition=p5, L=2)
        assert not sim2._rsm_equivalent

    def test_label(self, ziff, small_lattice, p5):
        sim = LPNDCA(ziff, small_lattice, partition=p5, L=7)
        assert "L=7" in sim.algorithm


class TestTrialBudget:
    @pytest.mark.parametrize("L", [1, 7, 50, "chunk"])
    def test_n_trials_per_step_is_N(self, ziff, small_lattice, p5, L):
        sim = LPNDCA(ziff, small_lattice, partition=p5, L=L, seed=0)
        sim._step_block(until=np.inf)
        assert sim.n_trials == small_lattice.n_sites

    def test_random_order_visits_every_chunk_once(self, ziff, small_lattice, p5):
        sim = LPNDCA(
            ziff, small_lattice, partition=p5, L="chunk",
            chunk_selection="random-order", seed=0,
        )
        sim._step_block(until=np.inf)
        assert sim.n_trials == small_lattice.n_sites

    def test_reproducible(self, ziff, small_lattice, p5):
        a = LPNDCA(ziff, small_lattice, partition=p5, L=10, seed=3).run(until=4.0)
        b = LPNDCA(ziff, small_lattice, partition=p5, L=10, seed=3).run(until=4.0)
        assert np.array_equal(a.final_state.array, b.final_state.array)


class TestRSMLimits:
    """m=1/L=N and m=N/L=1 reduce the algorithm exactly to RSM (Fig. 8).

    The reductions are proved *exactly*: with deterministic time the
    relevant configurations consume the random stream identically (per
    step: N uniform sites, N rate-weighted types), so same-seed runs
    are bit-identical — far stronger than a statistical comparison.
    """

    def _manual_rsm_trials(self, ziff, lat, seed, n_steps):
        """Replay: per step, N uniform trials through the raw kernel."""
        from repro.core.kernels import run_trials_sequential
        from repro.core.rng import draw_types
        from repro.core import Configuration

        comp = ziff.compile(lat)
        rng = np.random.default_rng(seed)
        state = Configuration.empty(lat, ziff.species).array.copy()
        n = lat.n_sites
        for _ in range(n_steps):
            sites = rng.integers(0, n, size=n).astype(np.intp)
            types = draw_types(rng, comp.type_cum, n)
            run_trials_sequential(state, comp, sites, types)
        return state

    def _run_steps(self, sim, n_steps):
        sim.run(until=np.inf, max_steps=n_steps)
        return sim.state.array

    def test_fast_path_is_exactly_rsm_trials(self, ziff, small_lattice, p5):
        manual = self._manual_rsm_trials(ziff, small_lattice, 7, 12)
        sim = LPNDCA(
            ziff, small_lattice, seed=7, partition=p5, L=1,
            time_mode="deterministic",
        )
        assert np.array_equal(self._run_steps(sim, 12), manual)

    def test_single_chunk_limit_exact(self, ziff, small_lattice):
        # m=1, L=N: the chunk IS the lattice, so in-chunk uniform site
        # draws are lattice-uniform draws -> the same stream again
        manual = self._manual_rsm_trials(ziff, small_lattice, 9, 12)
        sim = LPNDCA(
            ziff, small_lattice, seed=9,
            partition=Partition.single_chunk(small_lattice),
            L=small_lattice.n_sites, require_conflict_free=False,
            time_mode="deterministic",
        )
        assert np.array_equal(self._run_steps(sim, 12), manual)

    def test_singleton_limit_exact(self, ziff, small_lattice):
        # m=N, L=1 hits the same fast path (uniform chunk = uniform site)
        p = Partition.singletons(small_lattice)
        manual = self._manual_rsm_trials(ziff, small_lattice, 13, 12)
        sim = LPNDCA(
            ziff, small_lattice, seed=13, partition=p, L=1,
            time_mode="deterministic",
        )
        assert sim._rsm_equivalent
        assert np.array_equal(self._run_steps(sim, 12), manual)

    def test_statistical_agreement_with_rsm(self, ziff):
        # and the physical statement: the limit kinetics match RSM's
        lat = Lattice((10, 10))
        seeds = range(10)
        rsm = np.mean(
            [
                RSM(ziff, lat, seed=s).run(until=4.0).final_state.coverage("O")
                for s in seeds
            ]
        )
        p = five_chunk_partition(lat)
        lim = np.mean(
            [
                LPNDCA(ziff, lat, seed=s + 10, partition=p, L=1)
                .run(until=4.0)
                .final_state.coverage("O")
                for s in seeds
            ]
        )
        assert lim == pytest.approx(rsm, abs=0.12)


class TestDuplicateHandling:
    def test_with_replacement_duplicates_executed_correctly(self, ziff, small_lattice, p5):
        # tiny chunks + large L force many repeated sites; the batched
        # duplicate path must equal a sequential replay (covered at the
        # kernel level) and must never crash here
        sim = LPNDCA(ziff, small_lattice, partition=p5, L=50, seed=7)
        res = sim.run(until=3.0)
        assert res.n_executed > 0
        counts = res.final_state.counts()
        assert counts.sum() == small_lattice.n_sites
