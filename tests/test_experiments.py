"""Tests for the experiment drivers (cheap parameterisations)."""

import numpy as np

from repro.experiments import (
    criteria,
    fig2_conflicts,
    fig3_bca,
    fig4_partition,
    fig6_typepart,
    fig7_speedup,
    ndca_bias,
    phase_diagram,
    tables,
)


class TestTables:
    def test_table1_matches_paper(self):
        rows = tables.table1_rows()
        assert len(rows) == 7
        assert all(r.matches_paper() for r in rows)

    def test_table1_report_all_ok(self):
        rep = tables.table1_report()
        assert "MISMATCH" not in rep
        assert "{(s,*,CO)}" in rep

    def test_table2_matches_paper(self):
        split = tables.table2_split()
        model = split.model
        for s in split.subsets:
            names = {model.reaction_types[i].name for i in s.type_indices}
            assert names == tables.PAPER_TABLE2[f"T{s.index}"]

    def test_table2_report_all_ok(self):
        assert "MISMATCH" not in tables.table2_report()


class TestFig2:
    def test_unsafe_violates_discard_conserves(self):
        points = fig2_conflicts.run_fig2(densities=(0.4,), side=16, steps=20)
        p = points[0]
        assert p.discard_conserves
        assert p.unsafe_violates
        assert 0 < p.conflict_rate < 1

    def test_report_renders(self):
        points = fig2_conflicts.run_fig2(densities=(0.3,), side=12, steps=10)
        assert "conflict" in fig2_conflicts.fig2_report(points)


class TestFig3:
    def test_bca_history_matches_paper_rows(self):
        r = fig3_bca.run_fig3(n_steps=4)
        assert r.history_bca[0].tolist() == [0, 0, 1, 1, 1, 1, 0, 0, 1]
        assert r.history_bca[1].tolist() == [0, 0, 0, 1, 1, 0, 0, 0, 0]

    def test_bca_slower_than_global(self):
        r = fig3_bca.run_fig3()
        assert r.steps_to_fixpoint_bca >= r.steps_to_fixpoint_global

    def test_report(self):
        assert "Block CA" in fig3_bca.fig3_report()


class TestFig4:
    def test_matches_paper_tile(self):
        r = fig4_partition.run_fig4()
        assert r.matches_paper
        assert r.conflict_free
        assert r.clique_bound == 5
        assert r.searched_m == 5

    def test_report(self):
        assert "optimal" in fig4_partition.fig4_report()


class TestFig6:
    def test_checkerboard_serves_each_subset(self):
        r = fig6_typepart.run_fig6(side=10, until=2.0)
        assert r.checkerboard_valid
        assert r.chunks_per_subset == 2
        assert r.chunks_all_types == 5
        assert len(r.subsets) == 2


class TestFig7:
    def test_surface_shape_without_calibration(self):
        r = fig7_speedup.run_fig7(verify_executor=False)
        assert r.surface.shape == (9, 9)
        assert 6.5 <= r.max_speedup <= 8.5

    def test_report_without_calibration(self):
        r = fig7_speedup.run_fig7(verify_executor=False)
        rep = fig7_speedup.fig7_report(r)
        assert "T(1,N)/T(p,N)" in rep


class TestCriteria:
    def test_rsm_passes_both_criteria(self):
        r = criteria.run_criteria(until=200.0, seed=1)
        assert r.criterion1_ok, r.p_values
        assert r.criterion2_ok

    def test_ndca_fails_criterion1(self):
        from repro.ca import NDCA

        r = criteria.run_criteria(NDCA, until=200.0, seed=1)
        assert not r.criterion1_ok  # quantised waiting times

    def test_tick_model_is_static(self):
        m = criteria.tick_model()
        assert all(rt.is_null() for rt in m.reaction_types)


class TestPhaseDiagram:
    def test_poisoning_extremes(self):
        # far below y1: O-poisons; far above y2: CO-poisons
        d = phase_diagram.run_phase_diagram(
            ys=np.array([0.30, 0.60]), side=20, until=60.0, rsm_check_ys=()
        )
        assert d.points[0].poisoned == "O"
        assert d.points[1].poisoned == "CO"

    def test_reactive_window(self):
        d = phase_diagram.run_phase_diagram(
            ys=np.array([0.50]), side=20, until=60.0, rsm_check_ys=()
        )
        assert d.points[0].poisoned == "-"
        assert d.points[0].theta_empty > 0.1


class TestFastDiffusion:
    def test_pairing_model_correlates_without_diffusion(self):
        from repro.analysis import pair_correlation
        from repro.core import Lattice
        from repro.dmc import RSM
        from repro.experiments.fast_diffusion import pairing_model

        m = pairing_model(k_diff=0.1)
        res = RSM(m, Lattice((30, 30)), seed=0).run(until=15.0)
        g = pair_correlation(res.final_state, "O", "O", (1, 0))
        assert g > 1.5  # strong non-equilibrium pairing

    def test_small_sweep_runs(self):
        from repro.experiments.fast_diffusion import run_fast_diffusion

        r = run_fast_diffusion(
            k_diffs=(0.1, 8.0), side=20, until=10.0, n_seeds=2
        )
        assert set(r.g_rsm) == {0.1, 8.0}
        assert all(np.isfinite(v) for v in r.g_rsm.values())


class TestNdcaBias:
    def test_single_file_bias_direction(self):
        r = ndca_bias.run_ndca_bias(
            side=10, ising_until=5.0, sf_length=48, sf_particles=24,
            sf_until=20.0, seeds=(0, 1),
        )
        # the raster sweep advects particles: much larger tracer MSD
        assert r.sf_msd_ndca > r.sf_msd_rsm
