"""Edge cases and failure-path tests across modules."""

import numpy as np
import pytest

from repro.core import Configuration, Lattice, Model, ReactionType
from repro.dmc import RSM, CoverageObserver, VSSM
from repro.ca import LPNDCA, PNDCA
from repro.partition import Partition, five_chunk_partition


class TestObserverEdgeCases:
    def test_fine_grid_many_samples_per_block(self, ziff):
        # sampling interval far below the per-block time span: every
        # grid point must still be sampled exactly once, in order
        lat = Lattice((6, 6))
        obs = CoverageObserver(0.01)
        sim = RSM(ziff, lat, seed=0, block=4096, observers=[obs])
        res = sim.run(until=0.5)
        assert len(res.times) == 51
        assert np.allclose(np.diff(res.times), 0.01)

    def test_interval_larger_than_run(self, ziff):
        obs = CoverageObserver(100.0)
        res = RSM(ziff, Lattice((6, 6)), seed=0, observers=[obs]).run(until=1.0)
        assert res.times.tolist() == [0.0]

    def test_multiple_observers(self, ziff):
        from repro.analysis import PairCorrelationObserver

        o1 = CoverageObserver(0.5)
        o2 = PairCorrelationObserver(0.5, "O", "O", (1, 0))
        sim = RSM(ziff, Lattice((8, 8)), seed=0, observers=[o1, o2])
        res = sim.run(until=2.0)
        assert len(res.times) == len(res.extra["pair_corr_times"])


class TestAbsorbingStates:
    def test_rsm_keeps_trialing_in_absorbing_state(self):
        # RSM does not know the state is absorbing: it keeps rejecting
        m = Model(["*", "A"], [ReactionType("ads", [((0, 0), "*", "A")], 1.0)])
        lat = Lattice((4, 4))
        full = Configuration.filled(lat, m.species, "A")
        res = RSM(m, lat, seed=0, initial=full).run(until=2.0)
        assert res.n_executed == 0
        assert res.n_trials > 0
        assert res.final_time == pytest.approx(2.0)

    def test_vssm_detects_absorbing_state(self):
        m = Model(["*", "A"], [ReactionType("ads", [((0, 0), "*", "A")], 1.0)])
        lat = Lattice((4, 4))
        full = Configuration.filled(lat, m.species, "A")
        res = VSSM(m, lat, seed=0, initial=full).run(until=2.0)
        assert res.n_trials == 0
        assert res.final_time == 2.0

    def test_pndca_weighted_with_nothing_enabled(self, ziff):
        # weighted strategy must not divide by zero when no reaction is
        # enabled anywhere (fully CO-poisoned lattice: no *, no O)
        lat = Lattice((10, 10))
        p = five_chunk_partition(lat)
        poisoned = Configuration.filled(lat, ziff.species, "CO")
        sim = PNDCA(
            ziff, lat, seed=0, initial=poisoned, partition=p, strategy="weighted"
        )
        res = sim.run(until=0.5)
        assert res.n_executed == 0


class TestLPNDCAEdges:
    def test_L_larger_than_chunk(self, ziff):
        # L exceeding the chunk size is allowed (trials sample with
        # replacement); budget capping still holds
        lat = Lattice((10, 10))
        p = five_chunk_partition(lat)
        sim = LPNDCA(ziff, lat, seed=0, partition=p, L=75)
        sim._step_block(until=np.inf)
        assert sim.n_trials == lat.n_sites

    def test_ordered_schedule_with_tiny_L(self, ziff):
        lat = Lattice((10, 10))
        p = five_chunk_partition(lat)
        sim = LPNDCA(
            ziff, lat, seed=0, partition=p, L=3, chunk_selection="ordered"
        )
        n = sim._step_block(until=np.inf)
        assert n == 15  # 5 chunks x 3 trials

    def test_single_site_chunks_with_replacement(self, ziff):
        lat = Lattice((6, 6))
        p = Partition.singletons(lat)
        sim = LPNDCA(
            ziff, lat, seed=0, partition=p, L=4, chunk_selection="uniform"
        )
        res = sim.run(until=1.0)
        assert res.n_trials > 0


class TestLatticeEdges:
    def test_minimum_lattice_for_pairs(self, ziff):
        # 2x2 is the smallest lattice whose wrap keeps pair patterns sane
        res = RSM(ziff, Lattice((2, 2)), seed=0).run(until=1.0)
        assert res.final_state.counts().sum() == 4

    def test_1x_n_lattice_rejected_for_pairs(self, ziff):
        with pytest.raises(ValueError):
            ziff.compile(Lattice((1, 8)))

    def test_non_square_lattice(self, ziff):
        res = RSM(ziff, Lattice((4, 12)), seed=0).run(until=1.0)
        assert res.final_state.counts().sum() == 48

    def test_non_square_five_chunk_partition(self, ziff):
        lat = Lattice((10, 15))
        p = five_chunk_partition(lat)
        assert p.find_conflicts(ziff) == []


class TestPaperScalePresets:
    def test_runner_at_toy_scale(self, tmp_path):
        from repro.experiments.paper_scale import run_paper_scale

        out = run_paper_scale(
            "fig10", side=15, until=8.0, out_dir=tmp_path
        )
        assert "fig10" in out
        assert (tmp_path / "fig10.txt").exists()

    def test_unknown_figure(self, tmp_path):
        from repro.experiments.paper_scale import run_paper_scale

        with pytest.raises(KeyError):
            run_paper_scale("fig99", out_dir=tmp_path)


class TestResultReproducibilityAcrossRuns:
    def test_continuing_a_run_differs_from_fresh(self, ziff):
        # run() can be called again to continue; time keeps advancing
        sim = RSM(ziff, Lattice((8, 8)), seed=0)
        r1 = sim.run(until=1.0)
        r2 = sim.run(until=2.0)
        assert r2.final_time == pytest.approx(2.0)
        assert r2.n_trials > r1.n_trials
