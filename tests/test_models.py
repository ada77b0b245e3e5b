"""Tests for the model definitions in repro.models."""

import numpy as np
import pytest

from repro.core import Configuration, Lattice
from repro.dmc import RSM
from repro.models import (
    OSCILLATING,
    diffusion_model_1d,
    diffusion_model_2d,
    empty_surface,
    equally_spaced,
    hex_surface,
    ising_model_2d,
    magnetization,
    mean_field_rhs,
    pt100_model,
    random_gas,
    random_spins,
    single_file_model,
    tracer_displacements,
    zgb_model,
    ziff_model,
)


class TestZiff:
    def test_seven_types(self):
        m = ziff_model()
        assert m.n_types == 7
        assert m.groups() == ["CO+O", "O2_ads", "CO_ads"]

    def test_rates_assigned_per_group(self):
        m = ziff_model(k_co=3.0, k_o2=2.0, k_co2=5.0)
        assert m.reaction_types[m.type_index("CO_ads")].rate == 3.0
        assert m.reaction_types[m.type_index("O2_ads(1)")].rate == 2.0
        assert m.reaction_types[m.type_index("CO+O(3)")].rate == 5.0

    def test_empty_surface(self):
        lat = Lattice((5, 5))
        cfg = empty_surface(lat)
        assert cfg.coverage("*") == 1.0

    def test_zgb_parameterisation(self):
        m = zgb_model(0.5, k_reaction=100.0)
        # per-event totals: CO flux y, O2 flux 1-y, reaction 100
        assert m.reaction_types[m.type_index("CO_ads")].rate == 0.5
        assert 2 * m.reaction_types[m.type_index("O2_ads(0)")].rate == pytest.approx(0.5)
        assert 4 * m.reaction_types[m.type_index("CO+O(0)")].rate == pytest.approx(100.0)

    def test_zgb_validation(self):
        with pytest.raises(ValueError):
            zgb_model(0.0)
        with pytest.raises(ValueError):
            zgb_model(0.5, k_reaction=-1)

    def test_co_poisoning_at_high_y(self):
        m = zgb_model(0.9)
        lat = Lattice((10, 10))
        res = RSM(m, lat, seed=0, initial=empty_surface(lat, m)).run(until=60.0)
        assert res.final_state.coverage("CO") > 0.9


class TestPt100:
    def test_species_and_types(self):
        m = pt100_model()
        assert list(m.species) == ["h", "hC", "s", "sC", "sO"]
        assert m.n_types == 52

    def test_five_chunk_partition_valid(self):
        from repro.partition import five_chunk_partition

        m = pt100_model()
        p = five_chunk_partition(Lattice((10, 10)))
        assert p.find_conflicts(m) == []

    def test_rate_override(self):
        m = pt100_model({"k_diff": 2.5})
        idx = [i for i, rt in enumerate(m.reaction_types) if rt.group == "diff"]
        assert all(m.reaction_types[i].rate == 2.5 for i in idx)

    def test_unknown_rate_key(self):
        with pytest.raises(KeyError):
            pt100_model({"k_zzz": 1.0})

    def test_hex_surface(self):
        lat = Lattice((4, 4))
        cfg = hex_surface(lat)
        assert cfg.coverage("h") == 1.0

    def test_mean_field_conserves_total(self):
        theta = np.array([0.3, 0.2, 0.2, 0.2, 0.1])
        d = mean_field_rhs(theta, OSCILLATING)
        assert d.sum() == pytest.approx(0.0, abs=1e-12)

    def test_mean_field_oscillates(self):
        from scipy.integrate import solve_ivp

        sol = solve_ivp(
            lambda t, y: mean_field_rhs(y, OSCILLATING),
            (0, 300),
            [1.0, 0, 0, 0, 0],
            max_step=0.2,
        )
        co = sol.y[1] + sol.y[3]
        late = sol.t > 150
        assert co[late].max() - co[late].min() > 0.3  # a live limit cycle

    def test_phase_plus_adsorbate_conserved(self):
        # total sites conserved trivially; also no O ever appears on hex
        m = pt100_model()
        lat = Lattice((10, 10))
        res = RSM(m, lat, seed=0, initial=hex_surface(lat, m)).run(until=5.0)
        assert res.final_state.counts().sum() == lat.n_sites


class TestDiffusion:
    def test_particle_conservation_all_simulators(self, rng):
        from repro.ca import NDCA

        m = diffusion_model_2d()
        lat = Lattice((10, 10))
        initial = random_gas(lat, m, 0.4, rng)
        n0 = initial.counts()[1]
        for cls in (RSM, NDCA):
            res = cls(m, lat, seed=0, initial=initial).run(until=5.0)
            assert res.final_state.counts()[1] == n0

    def test_density_validation(self, rng):
        m = diffusion_model_2d()
        with pytest.raises(ValueError):
            random_gas(Lattice((5, 5)), m, 1.5, rng)

    def test_1d_model(self):
        m = diffusion_model_1d()
        assert m.n_types == 2
        assert m.ndim == 1


class TestIsing:
    def test_32_types(self):
        m = ising_model_2d(beta=0.5)
        assert m.n_types == 32

    def test_detailed_balance_rates(self):
        import math

        m = ising_model_2d(beta=0.7, coupling=1.0)
        # flipping + with all-+ neighbours vs flipping - with all-+
        k_up = m.reaction_types[m.type_index("flip[+|++++]")].rate
        k_dn = m.reaction_types[m.type_index("flip[-|++++]")].rate
        # dE(+->-) = +8J, dE(-->+) = -8J: ratio = exp(-beta * 8)
        assert k_up / k_dn == pytest.approx(math.exp(-0.7 * 8.0))

    def test_infinite_temperature_symmetric(self):
        m = ising_model_2d(beta=0.0)
        rates = {rt.rate for rt in m.reaction_types}
        assert rates == {0.5}

    def test_magnetization(self, rng):
        m = ising_model_2d(beta=0.5)
        lat = Lattice((6, 6))
        cfg = random_spins(lat, m, rng, p_up=1.0)
        assert magnetization(cfg) == pytest.approx(1.0)

    def test_low_temperature_orders(self):
        m = ising_model_2d(beta=1.0)
        lat = Lattice((8, 8))
        rng = np.random.default_rng(0)
        cfg = random_spins(lat, m, rng, p_up=0.9)
        res = RSM(m, lat, seed=1, initial=cfg).run(until=30.0)
        assert abs(magnetization(res.final_state)) > 0.8


class TestSingleFile:
    def test_tracer_replay_conserves_order(self):
        m = single_file_model()
        lat = Lattice((32,))
        initial = equally_spaced(lat, m, 8)
        sim = RSM(m, lat, seed=3, initial=initial, record_events=True)
        sim.run(until=20.0)
        disp = tracer_displacements(initial, sim.trace, m)
        assert disp.shape == (8,)
        # single-file: displacement spread stays modest (subdiffusive)
        assert np.abs(disp).max() < 32

    def test_tracer_needs_1d(self):
        m = single_file_model()
        lat = Lattice((4, 4))
        from repro.core.events import EventTrace

        cfg = Configuration.empty(lat, m.species)
        with pytest.raises(ValueError, match="1-d"):
            tracer_displacements(cfg, EventTrace(), m)

    def test_equally_spaced_validation(self):
        m = single_file_model()
        with pytest.raises(ValueError):
            equally_spaced(Lattice((4,)), m, 5)
