"""Replicas through the one loop helper, pinned to the retired stacked engine.

Replicas are independent sequential runs: in-process through
:func:`repro.analysis.statistics.run_ensemble`, journaled through a
``[sweep] seed`` grid and ``repro sweep``.  The stacked ``(R, N)``
ensemble engines (``EnsembleRSM``, ``EnsembleNDCA``, ``EnsemblePNDCA``)
that preceded them were bit-identical per replica to sequential runs.
Their per-replica :func:`~repro.resilience.runs.run_digest` values on
10x10 ZGB (y = 0.5) at t = 2, recorded from those engines in both seed
modes (``seeds=[3, 4, 5]`` and ``n_replicas=4, seed=0``, i.e.
``spawn_rngs(0, 4)``), are pinned below; ``run_ensemble`` must
reproduce every one under every available backend.
"""

import numpy as np
import pytest

from repro.analysis.statistics import run_ensemble
from repro.backends import available_backends, use_backend
from repro.ca.ndca import NDCA
from repro.ca.pndca import PNDCA
from repro.core.lattice import Lattice
from repro.core.rng import spawn_rngs
from repro.dmc.base import CoverageObserver
from repro.dmc.rsm import RSM
from repro.models.zgb import zgb_model
from repro.partition.tilings import five_chunk_family, five_chunk_partition
from repro.resilience.runs import run_digest

UNTIL = 2.0
INTERVAL = 0.5
SEEDS = [3, 4, 5]

MODEL = zgb_model(0.5)
LATTICE = Lattice((10, 10))
P5 = five_chunk_partition(LATTICE)
BACKENDS = ["numpy", *[n for n in available_backends() if n != "numpy"]]

#: case -> (engine class, constructor options)
CASES = {
    "rsm": (RSM, {}),
    "rsm-deterministic": (RSM, {"time_mode": "deterministic", "block": 512}),
    "rsm-block512": (RSM, {"block": 512}),
    "ndca": (NDCA, {}),
    "ndca-random": (NDCA, {"order": "random"}),
    "ndca-random-deterministic": (
        NDCA, {"order": "random", "time_mode": "deterministic"}
    ),
    "pndca": (PNDCA, {"partition": P5, "strategy": "ordered"}),
    "pndca-cycle": (
        PNDCA,
        {
            "partition": five_chunk_family(LATTICE),
            "strategy": "ordered",
            "partition_schedule": "cycle",
        },
    ),
}

#: (case, mode) -> per-replica digests of the retired stacked engine
PINNED = {
    ("rsm", "seeds"): ["f022fc53d8d32fc3", "f288fa90a7b26708", "4f367b7da1a019b2"],
    ("rsm", "spawned"): [
        "841bd5a328c4b29e", "662b41a6e9b8d7c3", "f2a3b2d70843b1df", "a70760161decd0d9",
    ],
    ("rsm-deterministic", "seeds"): [
        "51dc0a42b77b2673", "4abce8164233d03d", "51394a48e1f91210",
    ],
    ("rsm-deterministic", "spawned"): [
        "0c5c72a2a887151f", "0b1d3d32f75b7379", "644a7d705a16c6e7", "65704ecd36c8eb7e",
    ],
    ("rsm-block512", "seeds"): [
        "f6f989588a88ea97", "780bef9f9c526090", "6a17bacd8f43f9e1",
    ],
    ("rsm-block512", "spawned"): [
        "f38ed4047d666c91", "caff633aafe23cbd", "c28072e4ba32f4b4", "bc91e1ad917c6c5d",
    ],
    ("ndca", "seeds"): ["97c42b524677aa0e", "2a36ae3367a1119f", "6169c75af270c65c"],
    ("ndca", "spawned"): [
        "d11fd97d2d299ec7", "e9b89d14666a48cd", "c41f4b4f43beac82", "825b4b6065e6d83c",
    ],
    ("ndca-random", "seeds"): [
        "aab5020b43c588a9", "09c5bedb67837823", "857edc77e5bdce43",
    ],
    ("ndca-random", "spawned"): [
        "61c636f743fd6d2c", "30e29270fccec155", "f0b2121f6607a675", "1195c1ba0b6291a1",
    ],
    ("ndca-random-deterministic", "seeds"): [
        "2bc79cc141560a37", "c143d33bd78e693f", "4866038239ac5fab",
    ],
    ("ndca-random-deterministic", "spawned"): [
        "4662e6bf20261a91", "b6aaa18badf96fc5", "385d75d4c8a0dac1", "ceadc2a0a585f12f",
    ],
    ("pndca", "seeds"): ["e700f2886dcebe9f", "280b1e656a0a8b32", "0524c89d811cd1da"],
    ("pndca", "spawned"): [
        "d72427efe5d991e6", "98acef36c1d63c19", "8713042c37e28574", "3bab3d7a7d1880a6",
    ],
    ("pndca-cycle", "seeds"): [
        "62ab9f7ee433541c", "74c38a84edc99128", "f3bed2439a419355",
    ],
    ("pndca-cycle", "spawned"): [
        "9f6fc3b4bc5f2677", "0495167561848010", "f1600b2da697584a", "ce09ec97802dd9de",
    ],
}


def replica_digests(case: str, mode: str, backend: str) -> list[str]:
    """Per-replica digests of ``run_ensemble`` over the case's seeds."""
    cls, options = CASES[case]
    engines = []

    def factory(seed):
        engines.append(cls(
            MODEL, LATTICE, seed=seed, observers=[CoverageObserver(INTERVAL)],
            backend=backend, **options,
        ))
        return engines[-1]

    seeds = SEEDS if mode == "seeds" else spawn_rngs(0, 4)
    run_ensemble(factory, seeds, UNTIL)
    return [run_digest(e) for e in engines]


def assert_pinned(case: str, mode: str = "seeds") -> None:
    for backend in BACKENDS:
        got = replica_digests(case, mode, backend)
        assert got == PINNED[case, mode], f"{case}/{mode} under {backend}"


# ----------------------------------------------------------------------
# RSM
# ----------------------------------------------------------------------

@pytest.mark.parametrize("time_mode", ["stochastic", "deterministic"])
def test_rsm_bit_identical(time_mode):
    assert_pinned("rsm" if time_mode == "stochastic" else "rsm-deterministic")


def test_rsm_multi_block_bit_identical():
    """A block far smaller than the trial budget exercises the block loop."""
    assert_pinned("rsm-block512")


# ----------------------------------------------------------------------
# NDCA
# ----------------------------------------------------------------------

@pytest.mark.parametrize("order", ["random", "raster"])
def test_ndca_bit_identical(order):
    assert_pinned("ndca-random" if order == "random" else "ndca")


def test_ndca_deterministic_time_bit_identical():
    assert_pinned("ndca-random-deterministic")


# ----------------------------------------------------------------------
# PNDCA
# ----------------------------------------------------------------------

def test_pndca_ordered_bit_identical():
    assert_pinned("pndca")


def test_pndca_partition_cycle_bit_identical():
    """Several partitions on a cycle schedule: deterministic, comparable."""
    assert_pinned("pndca-cycle")


@pytest.mark.parametrize("strategy", ["ordered", "random-order", "random"])
def test_pndca_strategies_replica_isolated(strategy):
    """Replica r of a loop equals a solo run with its seed: nothing a
    run leaves behind (cached tables, partition state) reaches the next."""
    def factory(seed):
        return PNDCA(
            MODEL, LATTICE, seed=seed, partition=P5, strategy=strategy,
            observers=[CoverageObserver(INTERVAL)],
        )

    ens = run_ensemble(factory, SEEDS, UNTIL, keep_results=True)
    for seed, rep in zip(SEEDS, ens.results):
        solo = factory(seed).run(until=UNTIL)
        assert np.array_equal(rep.final_state.array, solo.final_state.array)
        assert rep.final_time == solo.final_time
        assert np.array_equal(rep.executed_per_type, solo.executed_per_type)


def test_pndca_rejects_conflicting_partition():
    """No sequential fallback: a one-chunk partition is refused before
    any replica runs."""
    from repro.lint.engine import LintError
    from repro.partition.partition import Partition

    whole = Partition(LATTICE, [np.arange(LATTICE.n_sites)])
    with pytest.raises(LintError, match="non-overlap rule"):
        run_ensemble(
            lambda s: PNDCA(MODEL, LATTICE, seed=s, partition=whole), [1], UNTIL
        )


# ----------------------------------------------------------------------
# seed modes, statistics plumbing and error handling
# ----------------------------------------------------------------------

def test_spawned_streams_mode():
    """``spawn_rngs(0, 4)`` Generators reproduce the ``n_replicas=4,
    seed=0`` mode, and the four trajectories are distinct."""
    for case in CASES:
        assert_pinned(case, "spawned")
        assert len(set(PINNED[case, "spawned"])) == 4


def test_statistics_reduction_matches_manual():
    def factory(seed):
        return PNDCA(
            MODEL, LATTICE, seed=seed, partition=P5, strategy="ordered",
            observers=[CoverageObserver(INTERVAL)],
        )

    stats = run_ensemble(factory, SEEDS, UNTIL, keep_results=True)
    assert stats.n_runs == len(SEEDS)
    n = len(stats.times)
    for sp in stats.mean:
        series = np.vstack([r.coverage[sp][:n] for r in stats.results])
        assert np.allclose(stats.mean[sp], series.mean(axis=0))
        assert np.allclose(
            stats.stderr(sp), series.std(axis=0, ddof=1) / np.sqrt(len(SEEDS))
        )
    final = {sp: stats.mean[sp][-1] for sp in stats.mean}
    assert set(final) == set(MODEL.species.names)
    assert abs(sum(final.values()) - 1.0) < 1e-12


def test_constructor_errors():
    with pytest.raises(ValueError, match="time mode"):
        RSM(MODEL, LATTICE, seed=1, time_mode="warp")
    with pytest.raises(ValueError, match="seed"):
        run_ensemble(lambda s: RSM(MODEL, LATTICE, seed=s), [], UNTIL)
    with pytest.raises(ValueError, match="strategy"):
        PNDCA(MODEL, LATTICE, seed=1, partition=P5, strategy="weighted-ish")
    with pytest.raises(ValueError, match="interval"):
        CoverageObserver(0.0)
    with pytest.raises(ValueError, match="CoverageObserver"):
        run_ensemble(lambda s: RSM(MODEL, LATTICE, seed=s), [1], UNTIL)


# ----------------------------------------------------------------------
# statistical regression (slow): guards against silent stream coupling
# ----------------------------------------------------------------------

# Reference statistics from *sequential* seed-code runs: 10 independent
# PNDCA trajectories (seeds 1000..1009, 20x20 ZGB, five-chunk
# partition, until=30) per y point.
SEQUENTIAL_REFERENCE = {
    # y: (co_mean, co_sem, o_mean, o_sem)
    0.35: (0.000250, 0.000250, 0.883750, 0.010899),
    0.45: (0.006500, 0.001302, 0.706500, 0.013034),
    0.53: (0.139750, 0.016472, 0.330250, 0.012950),
}


@pytest.mark.slow
@pytest.mark.parametrize("y", sorted(SEQUENTIAL_REFERENCE))
def test_ensemble_statistics_match_sequential_reference(y):
    """Replica means on spawned streams agree with stored statistics.

    The replicas use *different* (spawned) streams than the stored
    reference runs, so agreement here is statistical: the two mean
    estimates must lie within 3 combined standard errors.  If the
    replica streams were silently coupled (e.g. one generator feeding
    two replicas) the effective sample size collapses and these bounds
    break.
    """
    from repro.models.zgb import empty_surface

    side, until, r = 20, 30.0, 10
    model = zgb_model(y)
    lattice = Lattice((side, side))
    p5 = five_chunk_partition(lattice)

    def factory(rng):
        return PNDCA(
            model, lattice, seed=rng, initial=empty_surface(lattice, model),
            partition=p5, strategy="ordered",
            observers=[CoverageObserver(until)],
        )

    ens = run_ensemble(factory, spawn_rngs(77, r), until, keep_results=True)
    cov = {
        sp: np.array([res.final_state.coverages()[sp] for res in ens.results])
        for sp in ("CO", "O")
    }
    co_ref, co_sem_ref, o_ref, o_sem_ref = SEQUENTIAL_REFERENCE[y]
    co_sem = cov["CO"].std(ddof=1) / np.sqrt(r)
    o_sem = cov["O"].std(ddof=1) / np.sqrt(r)
    co_tol = 3.0 * np.hypot(co_sem_ref, co_sem) + 1e-12
    o_tol = 3.0 * np.hypot(o_sem_ref, o_sem) + 1e-12
    assert abs(cov["CO"].mean() - co_ref) <= co_tol, (
        f"y={y}: replica CO {cov['CO'].mean():.4f} vs sequential {co_ref:.4f} "
        f"(tol {co_tol:.4f})"
    )
    assert abs(cov["O"].mean() - o_ref) <= o_tol, (
        f"y={y}: replica O {cov['O'].mean():.4f} vs sequential {o_ref:.4f} "
        f"(tol {o_tol:.4f})"
    )
