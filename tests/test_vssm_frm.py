"""Unit tests for VSSM and FRM (the rejection-free DMC baselines)."""

import numpy as np
import pytest

from repro.core import Lattice, Model, ReactionType
from repro.dmc import FRM, RSM, VSSM


@pytest.fixture
def ads_model():
    return Model(
        ["*", "A"],
        [
            ReactionType("ads", [((0, 0), "*", "A")], 1.0),
            ReactionType("des", [((0, 0), "A", "*")], 0.5),
        ],
        name="ads-des",
    )


class TestVSSM:
    def test_every_trial_executes(self, ads_model):
        res = VSSM(ads_model, Lattice((6, 6)), seed=0).run(until=3.0)
        assert res.n_executed == res.n_trials > 0

    def test_reproducible(self, ads_model):
        lat = Lattice((6, 6))
        a = VSSM(ads_model, lat, seed=3).run(until=3.0)
        b = VSSM(ads_model, lat, seed=3).run(until=3.0)
        assert np.array_equal(a.final_state.array, b.final_state.array)

    def test_enabled_bookkeeping_consistent(self, ziff):
        lat = Lattice((6, 6))
        sim = VSSM(ziff, lat, seed=1)
        sim.run(until=2.0)
        comp = sim.compiled
        for i in range(comp.n_types):
            expected = set(comp.enabled_anchor_sites(sim.state.array, i).tolist())
            assert set(sim._enabled[i]) == expected

    def test_absorbing_state_terminates(self):
        model = Model(
            ["*", "A"], [ReactionType("ads", [((0, 0), "*", "A")], 3.0)]
        )
        res = VSSM(model, Lattice((4, 4)), seed=0).run(until=100.0)
        assert res.final_state.coverage("A") == 1.0
        assert res.final_time == 100.0  # advanced to the horizon

    def test_rejects_deterministic_time(self, ads_model):
        with pytest.raises(ValueError):
            VSSM(ads_model, Lattice((4, 4)), time_mode="deterministic")

    def test_total_enabled_rate(self, ads_model):
        lat = Lattice((4, 4))
        sim = VSSM(ads_model, lat, seed=0)
        # empty lattice: only adsorption enabled at every site
        assert sim.total_enabled_rate() == pytest.approx(16 * 1.0)


class TestFRM:
    def test_every_trial_executes(self, ads_model):
        res = FRM(ads_model, Lattice((6, 6)), seed=0).run(until=3.0)
        assert res.n_executed == res.n_trials > 0

    def test_reproducible(self, ads_model):
        lat = Lattice((6, 6))
        a = FRM(ads_model, lat, seed=3).run(until=3.0)
        b = FRM(ads_model, lat, seed=3).run(until=3.0)
        assert np.array_equal(a.final_state.array, b.final_state.array)

    def test_event_times_increasing(self, ads_model):
        sim = FRM(ads_model, Lattice((5, 5)), seed=2, record_events=True)
        sim.run(until=4.0)
        assert (np.diff(sim.trace.times) >= 0).all()

    def test_pending_bookkeeping(self, ziff):
        sim = FRM(ziff, Lattice((6, 6)), seed=1)
        sim.run(until=1.0)
        comp = sim.compiled
        expected = sum(
            comp.enabled_anchor_sites(sim.state.array, i).size
            for i in range(comp.n_types)
        )
        assert sim.pending() == expected

    def test_absorbing_state_terminates(self):
        model = Model(
            ["*", "A"], [ReactionType("ads", [((0, 0), "*", "A")], 3.0)]
        )
        res = FRM(model, Lattice((4, 4)), seed=0).run(until=50.0)
        assert res.final_state.coverage("A") == 1.0

    def test_rejects_deterministic_time(self, ads_model):
        with pytest.raises(ValueError):
            FRM(ads_model, Lattice((4, 4)), time_mode="deterministic")


class TestCrossValidation:
    """RSM, VSSM and FRM simulate the same Master Equation."""

    def test_equilibrium_coverage_agreement(self, ads_model):
        # adsorption/desorption equilibrium: theta = k_ads/(k_ads+k_des) = 2/3
        lat = Lattice((20, 20))
        for cls in (RSM, VSSM, FRM):
            res = cls(ads_model, lat, seed=7).run(until=15.0)
            assert res.final_state.coverage("A") == pytest.approx(2 / 3, abs=0.08), cls

    def test_ziff_transient_agreement(self, ziff):
        # mean O coverage at t=3 across a few seeds should agree
        lat = Lattice((12, 12))
        means = {}
        for cls in (RSM, VSSM, FRM):
            vals = [
                cls(ziff, lat, seed=s).run(until=3.0).final_state.coverage("O")
                for s in range(4)
            ]
            means[cls.__name__] = np.mean(vals)
        assert means["VSSM"] == pytest.approx(means["RSM"], abs=0.1)
        assert means["FRM"] == pytest.approx(means["RSM"], abs=0.1)


@pytest.mark.parametrize("cls", [VSSM, FRM])
def test_observer_sees_the_state_before_the_crossing_event(cls):
    """A grid time inside an event's waiting time is sampled with the
    state before that event: the 2x2 Ziff CO coverage at t = 0.25 from
    an empty surface matches the exact master equation (0.140), where
    sampling after the event read about 0.19."""
    from repro.core.state import Configuration
    from repro.dmc.base import CoverageObserver
    from repro.dmc.master_equation import MasterEquation
    from repro.models import ziff_model

    model, lat = ziff_model(), Lattice((2, 2))
    me = MasterEquation(model, lat)
    p0 = me.delta(Configuration.empty(lat, model.species))
    exact = float(me.expected_coverage(me.propagate(p0, [0.25])[0], "CO"))
    samples = []
    for seed in range(400):
        res = cls(model, lat, seed=seed, observers=[CoverageObserver(0.25)]).run(
            until=0.5
        )
        assert res.times[1] == 0.25
        samples.append(res.coverage["CO"][1])
    mean = np.mean(samples)
    sem = np.std(samples, ddof=1) / np.sqrt(len(samples))
    assert abs(mean - exact) < 3 * sem, (mean, exact, sem)
