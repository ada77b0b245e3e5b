"""Tests for conservation-law analysis."""

import pytest

from repro.core import Lattice, Model, ReactionType, conserved_quantities, is_conserved
from repro.core.conservation import (
    check_trajectory_conservation,
    stoichiometry_matrix,
)
from repro.dmc import RSM, SnapshotObserver
from repro.models import diffusion_model_2d, pt100_model


class TestStoichiometry:
    def test_adsorption(self):
        m = Model(["*", "A"], [ReactionType("ads", [((0, 0), "*", "A")], 1.0)])
        s = stoichiometry_matrix(m)
        assert s.tolist() == [[-1, 1]]

    def test_pair_reaction(self, ziff):
        s = stoichiometry_matrix(ziff)
        co_o = s[ziff.type_index("CO+O(0)")]
        # CO+O -> 2 vacancies: *(+2), CO(-1), O(-1)
        assert co_o.tolist() == [2, -1, -1]
        o2 = s[ziff.type_index("O2_ads(0)")]
        assert o2.tolist() == [-2, 0, 2]

    def test_diffusion_is_null_row(self):
        m = diffusion_model_2d()
        s = stoichiometry_matrix(m)
        assert not s.any()


class TestConservedQuantities:
    def test_total_sites_always_conserved(self, ziff):
        assert is_conserved(ziff, {"*": 1, "CO": 1, "O": 1})

    def test_diffusion_conserves_everything(self):
        m = diffusion_model_2d()
        basis = conserved_quantities(m)
        assert len(basis) == 2  # both species counts independently
        assert is_conserved(m, {"A": 1})
        assert is_conserved(m, {"*": 1})

    def test_ziff_conserves_only_total(self, ziff):
        basis = conserved_quantities(ziff)
        assert len(basis) == 1
        v = basis[0]
        assert v["*"] == v["CO"] == v["O"] != 0

    def test_ziff_particle_number_not_conserved(self, ziff):
        assert not is_conserved(ziff, {"CO": 1, "O": 1})

    def test_pt100_conserves_only_total(self):
        m = pt100_model()
        basis = conserved_quantities(m)
        assert len(basis) == 1
        vals = set(basis[0].values())
        assert vals == {1}

    def test_custom_combination(self):
        # A <-> B flip conserves A + B
        m = Model(
            ["A", "B"],
            [
                ReactionType("a2b", [((0, 0), "A", "B")], 1.0),
                ReactionType("b2a", [((0, 0), "B", "A")], 2.0),
            ],
        )
        assert is_conserved(m, {"A": 1, "B": 1})
        assert not is_conserved(m, {"A": 1})


class TestTrajectoryChecks:
    def test_diffusion_trajectory(self, rng):
        from repro.models import random_gas

        m = diffusion_model_2d()
        lat = Lattice((10, 10))
        initial = random_gas(lat, m, 0.4, rng)
        obs = SnapshotObserver(0.5)
        sim = RSM(m, lat, seed=0, initial=initial, observers=[obs])
        sim.run(until=3.0)
        snaps = list(obs.data()["snapshots"])
        assert check_trajectory_conservation(m, snaps, {"A": 1})
        assert check_trajectory_conservation(m, snaps, {"*": 2, "A": 2})

    def test_detects_violation(self, ziff):
        lat = Lattice((8, 8))
        obs = SnapshotObserver(0.5)
        sim = RSM(ziff, lat, seed=0, observers=[obs])
        sim.run(until=3.0)
        snaps = list(obs.data()["snapshots"])
        # CO count is NOT conserved in the Ziff model
        assert not check_trajectory_conservation(ziff, snaps, {"CO": 1})
        # total sites are
        assert check_trajectory_conservation(
            ziff, snaps, {"*": 1, "CO": 1, "O": 1}
        )

    def test_empty_states_rejected(self, ziff):
        with pytest.raises(ValueError):
            check_trajectory_conservation(ziff, [], {"CO": 1})


class TestEverySimulatorKeepsInvariants:
    """Conservation is the sharpest cross-simulator correctness probe."""

    @pytest.mark.parametrize(
        "algorithm", ["rsm", "ndca", "pndca", "lpndca", "typepart"]
    )
    def test_diffusion_particle_count(self, algorithm, rng):
        from repro.models import random_gas
        from repro.partition import five_chunk_partition
        from repro.taxonomy import make_simulator

        m = diffusion_model_2d()
        lat = Lattice((10, 10))
        initial = random_gas(lat, m, 0.35, rng)
        n0 = int(initial.counts()[1])
        kwargs: dict = {"seed": 3, "initial": initial}
        if algorithm in ("pndca", "lpndca"):
            p = five_chunk_partition(lat)
            kwargs["partition"] = p
        sim = make_simulator(algorithm, m, lat, **kwargs)
        res = sim.run(until=3.0)
        assert int(res.final_state.counts()[1]) == n0, algorithm
