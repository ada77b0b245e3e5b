"""Cross-consistency checks between independent implementations.

Several quantities are computed by more than one code path; they must
agree exactly: enabled-rate totals (compiled scan vs VSSM bookkeeping),
mean-field generators (generic vs hand-written), kernels (sequential vs
batch — covered elsewhere), waiting-time accounting (trace vs result
counters).
"""

import numpy as np
import pytest

from repro.core import Lattice
from repro.dmc import RSM, VSSM


class TestEnabledRateConsistency:
    def test_compiled_scan_equals_vssm_bookkeeping(self, ziff):
        lat = Lattice((8, 8))
        sim = VSSM(ziff, lat, seed=2)
        sim.run(until=2.0)
        scan = sim.compiled.enabled_rate_total(sim.state.array)
        assert sim.total_enabled_rate() == pytest.approx(scan)

    def test_enabled_rate_decomposes_over_partition(self, ziff):
        from repro.partition import five_chunk_partition

        lat = Lattice((10, 10))
        comp = ziff.compile(lat)
        rng = np.random.default_rng(0)
        state = rng.integers(0, 3, lat.n_sites).astype(np.uint8)
        p5 = five_chunk_partition(lat)
        total = comp.enabled_rate_total(state)
        by_chunk = sum(
            comp.enabled_rate_total(state, c) for c in p5.chunks
        )
        assert by_chunk == pytest.approx(total)


class TestTraceConsistency:
    def test_trace_length_equals_executed_counter(self, ziff):
        sim = RSM(ziff, Lattice((8, 8)), seed=1, record_events=True)
        res = sim.run(until=3.0)
        assert len(res.events) == res.n_executed

    def test_trace_per_type_counts_match(self, ziff):
        sim = RSM(ziff, Lattice((8, 8)), seed=1, record_events=True)
        res = sim.run(until=3.0)
        from_trace = np.bincount(
            res.events.type_indices, minlength=ziff.n_types
        )
        assert np.array_equal(from_trace, res.executed_per_type)

    def test_trace_replay_reconstructs_final_state(self, ziff):
        """Replaying the recorded events against the initial state must
        land exactly on the final state — the trace is complete."""
        lat = Lattice((8, 8))
        sim = RSM(ziff, lat, seed=5, record_events=True)
        res = sim.run(until=2.0)
        comp = ziff.compile(lat)
        from repro.core import Configuration

        replay = Configuration.empty(lat, ziff.species)
        for t_idx, s in zip(
            res.events.type_indices.tolist(), res.events.sites.tolist()
        ):
            comp.execute(replay.array, t_idx, s)
        assert np.array_equal(replay.array, res.final_state.array)


class TestMeanFieldConsistency:
    def test_generic_equals_handwritten_pt100(self):
        from repro.analysis.meanfield import mean_field_rhs_for
        from repro.models import OSCILLATING, mean_field_rhs, pt100_model

        generic = mean_field_rhs_for(pt100_model())
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = rng.dirichlet(np.ones(5))
            assert np.allclose(
                generic(theta), mean_field_rhs(theta, OSCILLATING), atol=1e-10
            )

    def test_mean_field_fixed_point_is_simulation_steady_state(self):
        """For single-site chemistry (no correlations) the mean-field
        fixed point equals the lattice steady state."""
        from repro.analysis.meanfield import integrate_mean_field
        from repro.core import Model, ReactionType

        m = Model(
            ["*", "A"],
            [
                ReactionType("ads", [((0, 0), "*", "A")], 3.0),
                ReactionType("des", [((0, 0), "A", "*")], 1.0),
            ],
        )
        _, cov = integrate_mean_field(m, {"*": 1.0}, t_end=20.0)
        res = RSM(m, Lattice((30, 30)), seed=0).run(until=20.0)
        assert res.final_state.coverage("A") == pytest.approx(
            cov["A"][-1], abs=0.03
        )


class TestMCStepAccounting:
    def test_mc_steps_equivalence_across_algorithms(self, ziff):
        """One 'step' of every per-step algorithm is N trials — the MC
        step normalisation the paper uses to compare methods."""
        from repro.ca import NDCA, PNDCA
        from repro.partition import five_chunk_partition

        lat = Lattice((10, 10))
        p5 = five_chunk_partition(lat)
        for sim in (
            NDCA(ziff, lat, seed=0),
            PNDCA(ziff, lat, seed=0, partition=p5),
        ):
            sim._step_block(until=np.inf)
            assert sim.n_trials == lat.n_sites

    def test_rsm_mc_step_rate(self, ziff):
        # expected MC steps over horizon t is K * t
        lat = Lattice((10, 10))
        res = RSM(ziff, lat, seed=0).run(until=3.0)
        assert res.mc_steps == pytest.approx(ziff.total_rate * 3.0, rel=0.1)
