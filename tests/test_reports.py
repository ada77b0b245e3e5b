"""The paper's evidence: every ``repro run <id>`` report and its claims.

Each ``slow`` test runs one experiment once through the call chain
``python -m repro run <id>`` uses (:func:`repro.experiments.run`, then
:func:`repro.experiments.render`), asserts the claims the report
supports, and checks that the rendered text is the committed
``benchmarks/reports/<id>.txt`` byte for byte.  After an intended
change, re-record a report with
``python -m repro run <id> > benchmarks/reports/<id>.txt``.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from repro import experiments

REPORTS = Path(__file__).resolve().parents[1] / "benchmarks" / "reports"

slow = pytest.mark.slow


def _assert_committed(experiment_id: str, result) -> None:
    """``repro run`` prints the rendered report plus a newline."""
    text = experiments.render(experiment_id, result) + "\n"
    assert text == (REPORTS / f"{experiment_id}.txt").read_text()


def test_every_experiment_has_one_committed_report():
    assert {p.stem for p in REPORTS.glob("*.txt")} == set(experiments.REGISTRY)


@slow
def test_table1():
    rows = experiments.run("table1")
    assert len(rows) == 7
    assert all(r.matches_paper() for r in rows)
    _assert_committed("table1", rows)


@slow
def test_table2():
    split = experiments.run("table2")
    assert split.n_subsets == 2
    _assert_committed("table2", split)


@slow
def test_fig2():
    points = experiments.run("fig2")
    assert all(p.discard_conserves for p in points)
    assert all(p.unsafe_violates for p in points)
    # conflicts grow with density (the Fig. 2 mechanism)
    rates = [p.conflict_rate for p in points]
    assert rates == sorted(rates)
    _assert_committed("fig2", points)


@slow
def test_fig3():
    result = experiments.run("fig3")
    assert result.history_bca[0].tolist() == [0, 0, 1, 1, 1, 1, 0, 0, 1]
    assert not result.history_bca[-1].any()  # zeros everywhere eventually
    _assert_committed("fig3", result)


@slow
def test_fig4():
    result = experiments.run("fig4")
    assert result.matches_paper
    assert result.conflict_free
    assert result.clique_bound == result.searched_m == 5
    _assert_committed("fig4", result)


@slow
def test_fig6():
    result = experiments.run("fig6")
    assert result.checkerboard_valid
    assert result.chunks_per_subset == 2
    assert result.chunks_all_types == 5
    _assert_committed("fig6", result)


@slow
def test_fig7():
    result = experiments.run("fig7")
    # paper shape: growth with N, saturation in p, max ~7-8
    assert (np.diff(result.surface, axis=0) >= -1e-9).all()
    assert 6.0 <= result.max_speedup <= 9.0
    assert result.executor_verified
    # the Segers route: thinner strips, worse volume/boundary ratio
    ratios = [r[1] for r in result.domain_decomposition]
    assert ratios == sorted(ratios, reverse=True)
    # strong scaling saturates; weak scaling stays efficient
    assert result.strong[-1][2] < result.strong[0][2]
    assert all(e > 0.5 for _, _, e in result.weak)
    # isoefficiency grows with p
    sizes = [n for _, n in result.isoefficiency if n is not None]
    assert sizes == sorted(sizes)
    _assert_committed("fig7", result)


@slow
def test_fig8():
    result = experiments.run("fig8")
    # both limits must track RSM within the RSM-vs-RSM null deviation
    assert result.limits_match, (
        result.null_rmse, result.single_rmse, result.singleton_rmse
    )
    # the reference RSM run oscillates (sanity of the workload)
    assert result.rsm.oscillation.amplitude > 0.1
    _assert_committed("fig8", result)


@slow
def test_fig9():
    result = experiments.run("fig9")
    assert result.small_L_matches, (result.null_rmse, result.rmse_by_L)
    # both parameterisations keep the oscillations alive at this scale
    assert result.by_L[1].oscillation.oscillating
    # L=100 drifts at least as far from RSM as L=1 does beyond the
    # stochastic null (the Fig. 9b deviation); assert the weak ordering
    assert result.rmse_by_L[100] >= 0.8 * result.rmse_by_L[1]
    _assert_committed("fig9", result)


@slow
def test_fig10():
    result = experiments.run("fig10")
    assert result.rsm.oscillation.oscillating
    assert result.random_order_oscillates  # the paper's headline claim
    _assert_committed("fig10", result)


@slow
def test_criteria():
    results = experiments.run("criteria")
    rsm, ndca = results
    assert rsm.criterion1_ok and rsm.criterion2_ok
    assert not ndca.criterion1_ok
    assert ndca.criterion2_ok  # the type *mix* stays right; timing doesn't
    _assert_committed("criteria", results)


@slow
def test_phase_diagram():
    diagram = experiments.run("phase-diagram")
    y1, y2 = diagram.transition_estimates()
    assert not math.isnan(y1) and abs(y1 - 0.39) < 0.06
    assert not math.isnan(y2) and abs(y2 - 0.525) < 0.06
    # reactive window exists between the transitions
    reactive = [p for p in diagram.points if y1 < p.y < y2]
    assert any(p.poisoned == "-" for p in reactive)
    _assert_committed("phase-diagram", diagram)


@slow
def test_ndca_bias():
    result = experiments.run("ndca-bias")
    # the documented degeneracy: raster sweeps advect 1-d particles,
    # inflating the tracer MSD by a large factor
    assert result.sf_msd_ndca > 2 * result.sf_msd_rsm
    _assert_committed("ndca-bias", result)


@slow
def test_fast_diffusion():
    result = experiments.run("fast-diffusion")
    # diffusion mixes the pairing correlation away ...
    assert result.correlations_decay_with_diffusion
    # ... and with it the chunked algorithm's deviation from DMC
    assert result.deviation_shrinks
    _assert_committed("fast-diffusion", result)


@slow
def test_ablation_strategies():
    result = experiments.run("ablation-strategies")
    # all four schedules keep the dynamics in the oscillatory regime
    # and none drifts catastrophically from RSM
    for strategy, rmse in result.rmse.items():
        assert rmse < 4 * result.null_rmse, (strategy, rmse, result.null_rmse)
    # the weighted schedule pays for its enabling scans
    assert (
        result.trials_per_second["weighted"]
        < result.trials_per_second["random-order"]
    )
    _assert_committed("ablation-strategies", result)


@slow
def test_ablation_kernels():
    result = experiments.run("ablation-kernels")
    assert result.identical_states
    assert result.speedup > 2.0  # the data-parallel payoff
    _assert_committed("ablation-kernels", result)
