"""Property tests for the replica loop (:func:`run_ensemble`).

Two invariants, fuzzed with hypothesis over random shapes, seeds and
models:

* **replica isolation** — replica ``i`` of an R-replica loop is
  bit-identical to a solo run with the same seed, and spawned streams
  are positional: one replica never reads what another left behind;
* **per-replica conservation** — on a pure diffusion model every
  replica conserves its own particle count exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.statistics import run_ensemble
from repro.ca import NDCA, PNDCA
from repro.core import Lattice
from repro.core.rng import make_rng, spawn_rngs
from repro.dmc import RSM, CoverageObserver
from repro.models import diffusion_model_2d, ziff_model
from repro.models.diffusion import random_gas
from repro.partition.tilings import five_chunk_partition

ZIFF = ziff_model()
DIFF = diffusion_model_2d()


def _run_replicas(cls_key, model, lattice, seeds, until, initial=None):
    """Final-state results of one ``run_ensemble`` loop over ``seeds``."""
    def factory(seed):
        obs = [CoverageObserver(0.5)]
        if cls_key == "rsm":
            return RSM(
                model, lattice, seed=seed, initial=initial, block=128,
                observers=obs,
            )
        if cls_key == "ndca":
            return NDCA(
                model, lattice, seed=seed, initial=initial, order="random",
                observers=obs,
            )
        return PNDCA(
            model, lattice, seed=seed, initial=initial,
            partition=five_chunk_partition(lattice), strategy="ordered",
            observers=obs,
        )

    return run_ensemble(factory, seeds, until, keep_results=True).results


class TestReplicaIsolation:
    @given(
        cls_key=st.sampled_from(["rsm", "ndca", "pndca"]),
        seeds=st.lists(
            st.integers(0, 2**31), min_size=2, max_size=5, unique=True
        ),
        pick=st.integers(0, 4),
    )
    @settings(max_examples=10, deadline=None)
    def test_replica_equals_solo_run(self, cls_key, seeds, pick):
        lattice = Lattice((10, 10))
        i = pick % len(seeds)
        big = _run_replicas(cls_key, ZIFF, lattice, seeds, 1.0)[i]
        (solo,) = _run_replicas(cls_key, ZIFF, lattice, [seeds[i]], 1.0)
        assert np.array_equal(big.final_state.array, solo.final_state.array)
        assert big.final_time == solo.final_time
        assert big.n_trials == solo.n_trials
        assert np.array_equal(big.executed_per_type, solo.executed_per_type)

    @given(
        side=st.sampled_from([5, 10, 15]),
        seed=st.integers(0, 2**31),
        r=st.integers(2, 6),
    )
    @settings(max_examples=10, deadline=None)
    def test_spawned_prefix_stability(self, side, seed, r):
        """Spawned streams: the first replicas of a larger loop match
        those of a smaller one (SeedSequence children are positional)."""
        lattice = Lattice((side, side))
        small = _run_replicas("rsm", ZIFF, lattice, spawn_rngs(seed, r), 0.5)
        big = _run_replicas("rsm", ZIFF, lattice, spawn_rngs(seed, r + 2), 0.5)
        for a, b in zip(big, small):
            assert np.array_equal(a.final_state.array, b.final_state.array)


class TestPerReplicaConservation:
    @given(
        cls_key=st.sampled_from(["rsm", "ndca", "pndca"]),
        density=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**31),
        r=st.integers(2, 5),
    )
    @settings(max_examples=10, deadline=None)
    def test_diffusion_conserves_each_replica(self, cls_key, density, seed, r):
        lattice = Lattice((10, 10))
        initial = random_gas(lattice, DIFF, density, make_rng(seed))
        code_a = DIFF.species.code("A")
        n0 = int(np.count_nonzero(initial.array == code_a))
        seeds = list(range(seed % 1000, seed % 1000 + r))
        results = _run_replicas(cls_key, DIFF, lattice, seeds, 1.0, initial)
        for res in results:
            assert np.count_nonzero(res.final_state.array == code_a) == n0
