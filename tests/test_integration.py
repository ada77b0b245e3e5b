"""Cross-module integration tests.

These tie the whole stack together: every simulation algorithm run on
the paper's models, compared against each other and against the exact
Master Equation where feasible — the reproduction's end-to-end
correctness statement.
"""

import numpy as np
import pytest

from repro.ca import LPNDCA, NDCA, PNDCA, TypePartitionedCA
from repro.core import Configuration, Lattice
from repro.dmc import FRM, RSM, VSSM, CoverageObserver, MasterEquation
from repro.models import hex_surface, pt100_model, ziff_model
from repro.partition import Partition, five_chunk_partition


class TestAllAlgorithmsOnZiff:
    """Every simulator must run the Table I model and stay consistent."""

    def _simulators(self, model, lat):
        p5 = five_chunk_partition(lat)
        return [
            RSM(model, lat, seed=1),
            VSSM(model, lat, seed=2),
            FRM(model, lat, seed=3),
            NDCA(model, lat, seed=4),
            PNDCA(model, lat, seed=5, partition=p5),
            LPNDCA(model, lat, seed=6, partition=p5, L=1),
            LPNDCA(model, lat, seed=7, partition=p5, L="chunk",
                   chunk_selection="random-order"),
            TypePartitionedCA(model, lat, seed=8),
        ]

    def test_all_run_and_stay_in_domain(self, ziff):
        lat = Lattice((10, 10))
        for sim in self._simulators(ziff, lat):
            res = sim.run(until=3.0)
            assert res.final_time >= 3.0 or res.n_trials > 0
            assert res.final_state.array.max() < len(ziff.species)
            assert res.final_state.counts().sum() == lat.n_sites, sim.algorithm

    def test_all_make_progress(self, ziff):
        lat = Lattice((10, 10))
        for sim in self._simulators(ziff, lat):
            res = sim.run(until=2.0)
            assert res.n_executed > 0, sim.algorithm

    def test_dmc_family_transient_consensus(self, ziff):
        """RSM/VSSM/FRM sample the same process: their ensemble means
        of theta_O(t=2) agree within stochastic error."""
        lat = Lattice((10, 10))
        means = {}
        for cls, base in ((RSM, 0), (VSSM, 100), (FRM, 200)):
            vals = [
                cls(ziff, lat, seed=base + s).run(until=2.0).final_state.coverage("O")
                for s in range(6)
            ]
            means[cls.__name__] = float(np.mean(vals))
        spread = max(means.values()) - min(means.values())
        assert spread < 0.12, means


class TestExactGroundTruth:
    """Ensemble kinetics vs the integrated Master Equation on 2x2."""

    @pytest.fixture(scope="class")
    def me_setup(self):
        model = ziff_model(k_co=1.0, k_o2=0.5, k_co2=2.0)
        lat = Lattice((2, 2))
        me = MasterEquation(model, lat)
        p0 = me.delta(Configuration.empty(lat, model.species))
        exact = me.propagate(p0, [0.8])[0]
        return model, lat, {
            "CO": float(me.expected_coverage(exact, "CO")),
            "O": float(me.expected_coverage(exact, "O")),
        }

    @pytest.mark.parametrize("algorithm", ["RSM", "VSSM", "FRM", "LPNDCA-L1"])
    def test_algorithm_matches_me(self, me_setup, algorithm):
        model, lat, exact = me_setup
        n_runs = 250

        def make(seed):
            if algorithm == "RSM":
                return RSM(model, lat, seed=seed)
            if algorithm == "VSSM":
                return VSSM(model, lat, seed=seed)
            if algorithm == "FRM":
                return FRM(model, lat, seed=seed)
            p = Partition.singletons(lat)
            return LPNDCA(model, lat, seed=seed, partition=p, L=1)

        cov_co = np.empty(n_runs)
        cov_o = np.empty(n_runs)
        for s in range(n_runs):
            res = make(s).run(until=0.8)
            cov_co[s] = res.final_state.coverage("CO")
            cov_o[s] = res.final_state.coverage("O")
        # 4-site lattice: per-run std <= 0.5 -> se ~ 0.032; allow ~3 se
        assert cov_co.mean() == pytest.approx(exact["CO"], abs=0.09), algorithm
        assert cov_o.mean() == pytest.approx(exact["O"], abs=0.09), algorithm


class TestPt100EndToEnd:
    def test_pndca_tracks_rsm_transient(self):
        model = pt100_model()
        lat = Lattice((20, 20))
        p5 = five_chunk_partition(lat)
        obs = lambda: CoverageObserver(0.5, species=("hC", "sC", "sO"))
        r1 = RSM(
            model, lat, seed=0, initial=hex_surface(lat, model), observers=[obs()]
        ).run(until=6.0)
        r2 = PNDCA(
            model, lat, seed=1, initial=hex_surface(lat, model),
            partition=p5, observers=[obs()],
        ).run(until=6.0)
        co1 = r1.coverage["hC"] + r1.coverage["sC"]
        co2 = r2.coverage["hC"] + r2.coverage["sC"]
        # the early CO-uptake transient is deterministic enough to compare
        early = r1.times <= 2.0
        assert np.abs(co1[early] - co2[early]).max() < 0.15

    def test_observer_grid_alignment_across_algorithms(self):
        model = pt100_model()
        lat = Lattice((10, 10))
        p5 = five_chunk_partition(lat)
        obs = lambda: CoverageObserver(1.0, species=("sO",))
        r1 = RSM(model, lat, seed=0, initial=hex_surface(lat, model),
                 observers=[obs()]).run(until=5.0)
        r2 = LPNDCA(model, lat, seed=0, initial=hex_surface(lat, model),
                    partition=p5, L=1, observers=[obs()]).run(until=5.0)
        assert np.array_equal(r1.times, r2.times)


class TestExperimentRegistry:
    def test_registry_complete(self):
        import repro.experiments as E

        expected = {
            "table1", "table2", "fig2", "fig3", "fig4", "fig6", "fig7",
            "fig8", "fig9", "fig10", "criteria", "phase-diagram",
            "ndca-bias", "fast-diffusion", "ablation-strategies",
            "ablation-kernels",
        }
        assert set(E.REGISTRY) == expected

    def test_unknown_experiment(self):
        import repro.experiments as E

        with pytest.raises(KeyError, match="unknown experiment"):
            E.report("fig99")
