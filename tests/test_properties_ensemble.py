"""Property tests for the stacked ensemble engine and its kernels.

Three invariants, fuzzed with hypothesis over random shapes, seeds and
models:

* **replica isolation** — replica ``i`` of an R-replica ensemble is
  bit-identical to the sole replica of a 1-replica ensemble built with
  the same seed: one replica's trials never read or write another's
  row of the stacked state;
* **per-replica conservation** — on a pure diffusion model every
  replica conserves its own particle count exactly, whatever the
  algorithm mixes into the cross-replica batches;
* **interleaved-executor exactness** — the windowed conflict-free
  prefix executor reproduces :func:`run_trials_sequential` on random
  trial streams, for any window size.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Configuration, Lattice
from repro.core.kernels import run_trials_interleaved, run_trials_sequential
from repro.core.rng import make_rng
from repro.ensemble import EnsembleNDCA, EnsemblePNDCA, EnsembleRSM
from repro.models import diffusion_model_2d, ziff_model
from repro.models.diffusion import random_gas
from repro.partition.tilings import five_chunk_partition

ZIFF = ziff_model()
DIFF = diffusion_model_2d()


def _make_ensemble(cls_key, model, lattice, seeds, initial=None):
    if cls_key == "rsm":
        return EnsembleRSM(
            model, lattice, seeds=seeds, initial=initial, block=128
        )
    if cls_key == "ndca":
        return EnsembleNDCA(
            model, lattice, seeds=seeds, initial=initial, order="random"
        )
    p5 = five_chunk_partition(lattice)
    return EnsemblePNDCA(
        model, lattice, seeds=seeds, initial=initial, partition=p5
    )


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
        big = _make_ensemble(cls_key, ZIFF, lattice, seeds).run(until=1.0)
        solo = _make_ensemble(cls_key, ZIFF, lattice, [seeds[i]]).run(until=1.0)
        assert np.array_equal(big.states[i], solo.states[0])
        assert big.final_times[i] == solo.final_times[0]
        assert big.n_trials[i] == solo.n_trials[0]
        assert np.array_equal(
            big.executed_per_type[i], solo.executed_per_type[0]
        )

    @given(
        side=st.sampled_from([5, 10, 15]),
        seed=st.integers(0, 2**31),
        r=st.integers(2, 6),
    )
    @settings(max_examples=10, deadline=None)
    def test_spawned_prefix_stability(self, side, seed, r):
        """Spawned streams: the first replicas of a larger ensemble match
        those of a smaller one (SeedSequence children are positional)."""
        lattice = Lattice((side, side))
        small = EnsembleRSM(
            ZIFF, lattice, n_replicas=r, seed=seed, block=128
        ).run(until=0.5)
        big = EnsembleRSM(
            ZIFF, lattice, n_replicas=r + 2, seed=seed, block=128
        ).run(until=0.5)
        assert np.array_equal(big.states[:r], small.states)


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
        ens = _make_ensemble(
            cls_key, DIFF, lattice, list(range(seed % 1000, seed % 1000 + r)),
            initial=initial,
        )
        res = ens.run(until=1.0)
        per_replica = (res.states == code_a).sum(axis=1)
        assert np.all(per_replica == n0)


class TestInterleavedExactness:
    @given(
        seed=st.integers(0, 2**31),
        n_reps=st.integers(1, 6),
        n_trials=st.integers(1, 200),
        window=st.integers(2, 40),
        model_key=st.sampled_from(["ziff", "diff"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_sequential_on_random_streams(
        self, seed, n_reps, n_trials, window, model_key
    ):
        model = ZIFF if model_key == "ziff" else DIFF
        lattice = Lattice((8, 8))
        compiled = model.compile(lattice)
        rng = make_rng(seed)
        n = lattice.n_sites
        sites = rng.integers(0, n, size=(n_reps, n_trials)).astype(np.intp)
        types = rng.integers(
            0, len(compiled.types), size=(n_reps, n_trials)
        ).astype(np.intp)
        if model_key == "diff":
            base = random_gas(lattice, model, 0.5, rng).array
        else:
            base = Configuration.random(
                lattice, model.species,
                {"CO": 0.3, "O": 0.3}, rng,
            ).array
        stacked = np.ascontiguousarray(np.tile(base, (n_reps, 1)))
        counts = np.zeros((n_reps, len(compiled.types)), dtype=np.int64)
        starts = np.zeros(n_reps, dtype=np.intp)
        stops = np.full(n_reps, n_trials, dtype=np.intp)
        n_exec = run_trials_interleaved(
            stacked, compiled, sites, types, starts, stops,
            counts=counts, window=window,
        )
        ref_exec = 0
        for r in range(n_reps):
            ref = base.copy()
            ref_counts = np.zeros(len(compiled.types), dtype=np.int64)
            ref_exec += run_trials_sequential(
                ref, compiled, sites[r], types[r], counts=ref_counts
            )
            assert np.array_equal(stacked[r], ref), f"replica {r} diverged"
            assert np.array_equal(counts[r], ref_counts)
        assert n_exec == ref_exec

    @given(
        seed=st.integers(0, 2**31),
        n_trials=st.integers(0, 60),
    )
    @settings(max_examples=10, deadline=None)
    def test_partial_ranges(self, seed, n_trials):
        """Per-replica [start, stop) ranges execute exactly that slice."""
        lattice = Lattice((8, 8))
        compiled = ZIFF.compile(lattice)
        rng = make_rng(seed)
        n = lattice.n_sites
        blk = 64
        n_reps = 3
        sites = rng.integers(0, n, size=(n_reps, blk)).astype(np.intp)
        types = rng.integers(
            0, len(compiled.types), size=(n_reps, blk)
        ).astype(np.intp)
        base = Configuration.empty(lattice, ZIFF.species).array
        stacked = np.ascontiguousarray(np.tile(base, (n_reps, 1)))
        starts = np.array([0, 5, blk], dtype=np.intp)
        stops = np.array(
            [min(n_trials, blk), min(5 + n_trials, blk), blk], dtype=np.intp
        )
        run_trials_interleaved(stacked, compiled, sites, types, starts, stops)
        for r in range(n_reps):
            ref = base.copy()
            run_trials_sequential(
                ref, compiled, sites[r][starts[r]:stops[r]],
                types[r][starts[r]:stops[r]],
            )
            assert np.array_equal(stacked[r], ref)
