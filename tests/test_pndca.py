"""Unit tests for PNDCA — the paper's central algorithm."""

import numpy as np
import pytest

from repro.ca import PNDCA, STRATEGIES
from repro.core import Lattice
from repro.dmc import RSM, CoverageObserver
from repro.partition import Partition, five_chunk_partition


@pytest.fixture
def p5(ziff, small_lattice):
    p = five_chunk_partition(small_lattice)
    return p


class TestConstruction:
    def test_validates_partition_by_default(self, ziff, small_lattice):
        bad = Partition.single_chunk(small_lattice)
        with pytest.raises(ValueError, match="non-overlap"):
            PNDCA(ziff, small_lattice, partition=bad)

    def test_fallback_when_not_validated(self, ziff, small_lattice):
        bad = Partition.single_chunk(small_lattice)
        sim = PNDCA(ziff, small_lattice, partition=bad, validate=False)
        assert sim.uses_sequential_fallback

    def test_vectorised_when_conflict_free(self, ziff, small_lattice, p5):
        sim = PNDCA(ziff, small_lattice, partition=p5)
        assert not sim.uses_sequential_fallback

    def test_unknown_strategy(self, ziff, small_lattice, p5):
        with pytest.raises(ValueError, match="strategy"):
            PNDCA(ziff, small_lattice, partition=p5, strategy="zigzag")

    def test_partition_lattice_mismatch(self, ziff, small_lattice):
        other = five_chunk_partition(Lattice((15, 15)))
        with pytest.raises(ValueError, match="different lattice"):
            PNDCA(ziff, small_lattice, partition=other)

    def test_algorithm_label(self, ziff, small_lattice, p5):
        sim = PNDCA(ziff, small_lattice, partition=p5, strategy="ordered")
        assert "ordered" in sim.algorithm and "m=5" in sim.algorithm


class TestStepAccounting:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_n_trials_per_step(self, ziff, small_lattice, p5, strategy):
        sim = PNDCA(ziff, small_lattice, partition=p5, strategy=strategy, seed=0)
        sim._step_block(until=np.inf)
        # every strategy performs m chunk visits of |Pi| trials each;
        # for equal chunks that is exactly N trials per step
        assert sim.n_trials == small_lattice.n_sites

    def test_reproducible(self, ziff, small_lattice, p5):
        a = PNDCA(ziff, small_lattice, partition=p5, seed=4).run(until=5.0)
        b = PNDCA(ziff, small_lattice, partition=p5, seed=4).run(until=5.0)
        assert np.array_equal(a.final_state.array, b.final_state.array)

    def test_time_advances_per_chunk(self, ziff, small_lattice, p5):
        sim = PNDCA(ziff, small_lattice, partition=p5, seed=0,
                    time_mode="deterministic")
        sim._step_block(until=np.inf)
        nk = small_lattice.n_sites * ziff.total_rate
        assert sim.time == pytest.approx(small_lattice.n_sites / nk)


class TestSequentialVsVectorisedEquivalence:
    def test_fallback_equals_batch_statistics(self, ziff, small_lattice, p5):
        # same partition run through both kernels (validated flag off ->
        # sequential); executed counts must agree statistically
        a = PNDCA(ziff, small_lattice, partition=p5, seed=1, strategy="ordered")
        res_a = a.run(until=5.0)
        b = PNDCA(ziff, small_lattice, partition=p5, seed=1, strategy="ordered")
        b.uses_sequential_fallback = True
        res_b = b.run(until=5.0)
        # identical rng stream: the trials are identical, and within a
        # conflict-free chunk execution order cannot matter
        assert np.array_equal(res_a.final_state.array, res_b.final_state.array)
        assert res_a.n_executed == res_b.n_executed


class TestKinetics:
    def test_tracks_rsm_coverage(self, ziff):
        lat = Lattice((20, 20))
        p = five_chunk_partition(lat)
        obs = lambda: CoverageObserver(1.0, species=("O", "CO"))
        r_rsm = RSM(ziff, lat, seed=0, observers=[obs()]).run(until=6.0)
        r_ca = PNDCA(ziff, lat, seed=1, partition=p, observers=[obs()]).run(until=6.0)
        # both poison toward O in this rate regime; transient coverage
        # should agree within stochastic scatter
        dev = np.abs(r_rsm.coverage["O"] - r_ca.coverage["O"]).max()
        assert dev < 0.15

    def test_weighted_strategy_runs(self, ziff, small_lattice, p5):
        res = PNDCA(
            ziff, small_lattice, partition=p5, strategy="weighted", seed=2
        ).run(until=2.0)
        assert res.n_executed > 0

    def test_chunk_weights_equal_per_chunk_rate_totals(self, ziff, small_lattice):
        """The one-pass weights are each chunk's ``enabled_rate_total``,
        bit for bit, so the weighted draws do not move."""
        from repro.partition import greedy_partition

        for p in (five_chunk_partition(small_lattice),
                  greedy_partition(small_lattice, ziff)):
            sim = PNDCA(ziff, small_lattice, partition=p, strategy="weighted", seed=0)
            rng = np.random.default_rng(4)
            n_species = len(ziff.species)
            for _ in range(5):
                sim.state.array[:] = rng.integers(0, n_species, small_lattice.n_sites)
                want = np.array([
                    sim.compiled.enabled_rate_total(sim.state.array, c)
                    for c in p.chunks
                ])
                assert sim._chunk_weights().tobytes() == want.tobytes()


class TestNeighbourMapsStayUnbuilt:
    """Under ``cnative`` the chunk visits read the per-type stencil, so a
    run allocates no length-N neighbour map; the peak-memory saving
    rests on this."""

    @pytest.mark.parametrize("engine", ["pndca", "lpndca"])
    def test_fresh_cnative_run_leaves_the_map_cache_empty(self, ziff, engine):
        from repro.backends import available_backends
        from repro.ca import LPNDCA

        if "cnative" not in available_backends():
            pytest.skip("cnative does not build on this host")
        lat = Lattice((20, 20))
        p = five_chunk_partition(lat)
        if engine == "pndca":
            sim = PNDCA(ziff, lat, partition=p, seed=1, backend="cnative")
        else:
            sim = LPNDCA(ziff, lat, partition=p, L=7, seed=1, backend="cnative")
        sim.run(until=2.0)
        assert sim.n_executed > 0
        assert lat._maps == {}
