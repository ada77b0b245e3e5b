"""Differential tests: the stacked ensemble engine vs sequential runs.

The ensemble contract is *bit-identity*: replica ``r`` of an ensemble
run must reproduce, to the last bit, the trajectory of the sequential
simulator with the same seed — final state, simulation time, trial
counts, per-type executed counts and every sampled coverage value.
These tests assert that for each supported algorithm family
(RSM / NDCA / PNDCA) in each relevant configuration; any divergence
between the vectorised cross-replica kernels and the sequential
semantics shows up as a hard equality failure here.
"""

import numpy as np
import pytest

from repro.ca.ndca import NDCA
from repro.ca.pndca import PNDCA
from repro.core.lattice import Lattice
from repro.dmc.base import CoverageObserver
from repro.dmc.rsm import RSM
from repro.ensemble import (
    ENSEMBLE_STRATEGIES,
    EnsembleNDCA,
    EnsemblePNDCA,
    EnsembleRSM,
    run_replicated,
)
from repro.models.zgb import zgb_model
from repro.partition.tilings import five_chunk_family, five_chunk_partition

SIDE = 10
SEEDS = [11, 12, 13, 14]
UNTIL = 2.0
INTERVAL = 0.5

MODEL = zgb_model(0.5)
LATTICE = Lattice((SIDE, SIDE))
P5 = five_chunk_partition(LATTICE)


def assert_replicas_match(ens_result, seq_results):
    """Every replica view equals its sequential counterpart exactly."""
    assert ens_result.n_replicas == len(seq_results)
    for i, seq in enumerate(seq_results):
        rep = ens_result.replica_result(i)
        assert np.array_equal(
            ens_result.states[i], seq.final_state.array.reshape(-1)
        ), f"replica {i}: final state differs"
        assert rep.final_time == seq.final_time, f"replica {i}: time differs"
        assert rep.n_trials == seq.n_trials, f"replica {i}: trial count differs"
        assert np.array_equal(
            rep.executed_per_type, seq.executed_per_type
        ), f"replica {i}: executed-per-type differs"
        n = len(rep.times)
        assert n > 0, "expected sampled coverages"
        assert np.array_equal(rep.times, seq.times[:n])
        for sp in rep.coverage:
            assert np.array_equal(
                rep.coverage[sp], seq.coverage[sp][:n]
            ), f"replica {i}: coverage[{sp}] differs"


# ----------------------------------------------------------------------
# RSM
# ----------------------------------------------------------------------

@pytest.mark.parametrize("time_mode", ["stochastic", "deterministic"])
def test_rsm_bit_identical(time_mode):
    def factory(seed):
        return RSM(
            MODEL, LATTICE, seed=seed, time_mode=time_mode, block=512,
            observers=[CoverageObserver(INTERVAL)],
        )

    seq = run_replicated(factory, SEEDS, UNTIL)
    ens = EnsembleRSM(
        MODEL, LATTICE, seeds=SEEDS, time_mode=time_mode,
        sample_interval=INTERVAL, block=512,
    )
    assert_replicas_match(ens.run(until=UNTIL), seq)


def test_rsm_multi_block_bit_identical():
    """A block far smaller than the trial budget exercises the block loop."""
    def factory(seed):
        return RSM(
            MODEL, LATTICE, seed=seed, block=64,
            observers=[CoverageObserver(INTERVAL)],
        )

    seq = run_replicated(factory, SEEDS, UNTIL)
    ens = EnsembleRSM(
        MODEL, LATTICE, seeds=SEEDS, sample_interval=INTERVAL, block=64
    )
    assert_replicas_match(ens.run(until=UNTIL), seq)


@pytest.mark.parametrize("window", [2, 7, 33])
def test_rsm_window_invariant(window):
    """The interleave window is a performance knob, never a semantic one."""
    def factory(seed):
        return RSM(
            MODEL, LATTICE, seed=seed, block=256,
            observers=[CoverageObserver(INTERVAL)],
        )

    seq = run_replicated(factory, SEEDS, UNTIL)
    ens = EnsembleRSM(
        MODEL, LATTICE, seeds=SEEDS, sample_interval=INTERVAL,
        block=256, window=window,
    )
    assert_replicas_match(ens.run(until=UNTIL), seq)


# ----------------------------------------------------------------------
# NDCA
# ----------------------------------------------------------------------

@pytest.mark.parametrize("order", ["random", "raster"])
def test_ndca_bit_identical(order):
    def factory(seed):
        return NDCA(
            MODEL, LATTICE, seed=seed, order=order,
            observers=[CoverageObserver(INTERVAL)],
        )

    seq = run_replicated(factory, SEEDS, UNTIL)
    ens = EnsembleNDCA(
        MODEL, LATTICE, seeds=SEEDS, order=order, sample_interval=INTERVAL
    )
    assert_replicas_match(ens.run(until=UNTIL), seq)


def test_ndca_deterministic_time_bit_identical():
    def factory(seed):
        return NDCA(
            MODEL, LATTICE, seed=seed, order="random",
            time_mode="deterministic", observers=[CoverageObserver(INTERVAL)],
        )

    seq = run_replicated(factory, SEEDS, UNTIL)
    ens = EnsembleNDCA(
        MODEL, LATTICE, seeds=SEEDS, order="random",
        time_mode="deterministic", sample_interval=INTERVAL,
    )
    assert_replicas_match(ens.run(until=UNTIL), seq)


# ----------------------------------------------------------------------
# PNDCA
# ----------------------------------------------------------------------

def test_pndca_ordered_bit_identical():
    def factory(seed):
        return PNDCA(
            MODEL, LATTICE, seed=seed, partition=P5, strategy="ordered",
            observers=[CoverageObserver(INTERVAL)],
        )

    seq = run_replicated(factory, SEEDS, UNTIL)
    ens = EnsemblePNDCA(
        MODEL, LATTICE, seeds=SEEDS, partition=P5, sample_interval=INTERVAL
    )
    assert_replicas_match(ens.run(until=UNTIL), seq)


def test_pndca_partition_cycle_bit_identical():
    """Several partitions on a cycle schedule: deterministic, comparable."""
    family = five_chunk_family(LATTICE)

    def factory(seed):
        return PNDCA(
            MODEL, LATTICE, seed=seed, partition=family, strategy="ordered",
            partition_schedule="cycle", observers=[CoverageObserver(INTERVAL)],
        )

    seq = run_replicated(factory, SEEDS, UNTIL)
    ens = EnsemblePNDCA(
        MODEL, LATTICE, seeds=SEEDS, partition=family,
        partition_schedule="cycle", sample_interval=INTERVAL,
    )
    assert_replicas_match(ens.run(until=UNTIL), seq)


@pytest.mark.parametrize("strategy", ENSEMBLE_STRATEGIES)
def test_pndca_strategies_replica_isolated(strategy):
    """Randomised schedules share one generator: replica r of an
    ensemble of R must equal replica 0 of an ensemble of one (the
    schedule stream is independent of the replica streams)."""
    big = EnsemblePNDCA(
        MODEL, LATTICE, seeds=SEEDS, partition=P5, strategy=strategy,
        schedule_seed=99, sample_interval=INTERVAL,
    ).run(until=UNTIL)
    for i, s in enumerate(SEEDS):
        solo = EnsemblePNDCA(
            MODEL, LATTICE, seeds=[s], partition=P5, strategy=strategy,
            schedule_seed=99, sample_interval=INTERVAL,
        ).run(until=UNTIL)
        assert np.array_equal(big.states[i], solo.states[0])
        assert big.final_times[i] == solo.final_times[0]
        assert np.array_equal(
            big.executed_per_type[i], solo.executed_per_type[0]
        )


# ----------------------------------------------------------------------
# statistics plumbing and error handling
# ----------------------------------------------------------------------

def test_statistics_reduction_matches_manual():
    ens = EnsemblePNDCA(
        MODEL, LATTICE, seeds=SEEDS, partition=P5, sample_interval=INTERVAL
    )
    res = ens.run(until=UNTIL)
    stats = res.statistics()
    assert stats.n_runs == len(SEEDS)
    for sp, series in res.coverage.items():
        assert np.allclose(stats.mean[sp], series.mean(axis=0))
        assert np.allclose(
            stats.stderr(sp),
            series.std(axis=0, ddof=1) / np.sqrt(len(SEEDS)),
        )
    cov = res.mean_final_coverages()
    sem = res.stderr_final_coverages()
    assert set(cov) == set(MODEL.species.names)
    assert abs(sum(cov.values()) - 1.0) < 1e-12
    assert all(v >= 0 for v in sem.values())


def test_spawned_streams_mode():
    """n_replicas/seed mode runs and produces R distinct trajectories."""
    ens = EnsembleRSM(MODEL, LATTICE, n_replicas=3, seed=5)
    res = ens.run(until=1.0)
    assert res.n_replicas == 3
    assert not np.array_equal(res.states[0], res.states[1])


def test_constructor_errors():
    with pytest.raises(ValueError, match="time mode"):
        EnsembleRSM(MODEL, LATTICE, seeds=[1], time_mode="warp")
    with pytest.raises(ValueError, match="seeds"):
        EnsembleRSM(MODEL, LATTICE)
    with pytest.raises(ValueError, match="disagrees"):
        EnsembleRSM(MODEL, LATTICE, seeds=[1, 2], n_replicas=3)
    with pytest.raises(ValueError, match="strategy"):
        EnsemblePNDCA(MODEL, LATTICE, seeds=[1], partition=P5, strategy="weighted")
    with pytest.raises(ValueError, match="sampling interval"):
        EnsembleRSM(MODEL, LATTICE, seeds=[1], sample_interval=0.0)
    ens = EnsembleRSM(MODEL, LATTICE, seeds=[1])
    with pytest.raises(ValueError, match="not beyond"):
        ens.run(until=0.0)


def test_pndca_rejects_conflicting_partition():
    """No sequential fallback: a one-chunk partition must be refused."""
    from repro.partition.partition import Partition

    whole = Partition(LATTICE, [np.arange(LATTICE.n_sites)])
    with pytest.raises(Exception):
        EnsemblePNDCA(MODEL, LATTICE, seeds=[1], partition=whole)


# ----------------------------------------------------------------------
# statistical regression (slow): guards against silent stream coupling
# ----------------------------------------------------------------------

# Reference statistics from *sequential* seed-code runs: 10 independent
# PNDCA trajectories (seeds 1000..1009, 20x20 ZGB, five-chunk
# partition, until=30) per y point; regenerate with
# scripts in the docstring below if the sequential RNG contract ever
# changes intentionally.
SEQUENTIAL_REFERENCE = {
    # y: (co_mean, co_sem, o_mean, o_sem)
    0.35: (0.000250, 0.000250, 0.883750, 0.010899),
    0.45: (0.006500, 0.001302, 0.706500, 0.013034),
    0.53: (0.139750, 0.016472, 0.330250, 0.012950),
}


@pytest.mark.slow
@pytest.mark.parametrize("y", sorted(SEQUENTIAL_REFERENCE))
def test_ensemble_statistics_match_sequential_reference(y):
    """Ensemble ZGB means agree with stored sequential-run statistics.

    The ensemble uses *different* (spawned) streams than the stored
    reference runs, so agreement here is statistical: the two mean
    estimates must lie within 3 combined standard errors.  If the
    replica streams were silently coupled (e.g. one generator feeding
    two replicas, or a schedule draw consuming replica randomness) the
    effective sample size collapses and these bounds break.
    """
    from repro.models.zgb import empty_surface

    side, until, r = 20, 30.0, 10
    model = zgb_model(y)
    lattice = Lattice((side, side))
    p5 = five_chunk_partition(lattice)
    ens = EnsemblePNDCA(
        model, lattice, n_replicas=r, seed=77,
        initial=empty_surface(lattice, model), partition=p5,
    )
    res = ens.run(until=until)
    cov = res.mean_final_coverages()
    sem = res.stderr_final_coverages()
    co_ref, co_sem_ref, o_ref, o_sem_ref = SEQUENTIAL_REFERENCE[y]
    co_tol = 3.0 * np.hypot(co_sem_ref, sem["CO"]) + 1e-12
    o_tol = 3.0 * np.hypot(o_sem_ref, sem["O"]) + 1e-12
    assert abs(cov["CO"] - co_ref) <= co_tol, (
        f"y={y}: ensemble CO {cov['CO']:.4f} vs sequential {co_ref:.4f} "
        f"(tol {co_tol:.4f})"
    )
    assert abs(cov["O"] - o_ref) <= o_tol, (
        f"y={y}: ensemble O {cov['O']:.4f} vs sequential {o_ref:.4f} "
        f"(tol {o_tol:.4f})"
    )
