"""Property-based tests (hypothesis) on the core invariants.

The paper's correctness rests on a handful of structural invariants:
partitions cover the lattice disjointly, the non-overlap rule implies
commuting reactions (so batched == sequential execution), lattices are
translation invariant, and trial streams never corrupt state encoding.
These are exactly the properties worth fuzzing.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Lattice
from repro.core.kernels import (
    _occurrence_index,
    run_trials_batch,
    run_trials_batch_with_duplicates,
    run_trials_sequential,
)
from repro.core.rng import draw_types
from repro.models import ziff_model
from repro.partition import Partition, five_chunk_partition, modular_tiling
from repro.partition.conflicts import conflict_witnesses, residue_collides

MODEL = ziff_model()


# ----------------------------------------------------------------------
# lattice geometry
# ----------------------------------------------------------------------

lattice_shapes = st.tuples(st.integers(2, 12), st.integers(2, 12))
offsets_2d = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


class TestLatticeProperties:
    @given(shape=lattice_shapes, off=offsets_2d)
    @settings(max_examples=60, deadline=None)
    def test_neighbor_map_is_permutation(self, shape, off):
        lat = Lattice(shape)
        m = lat.neighbor_map(off)
        assert np.array_equal(np.sort(m), np.arange(lat.n_sites))

    @given(shape=lattice_shapes, a=offsets_2d, b=offsets_2d)
    @settings(max_examples=60, deadline=None)
    def test_translation_composition(self, shape, a, b):
        lat = Lattice(shape)
        ab = tuple(x + y for x, y in zip(a, b))
        composed = lat.neighbor_map(b)[lat.neighbor_map(a)]
        assert np.array_equal(composed, lat.neighbor_map(ab))

    @given(shape=lattice_shapes, flat=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_coords_roundtrip(self, shape, flat):
        lat = Lattice(shape)
        flat %= lat.n_sites
        assert lat.flat_index(lat.coords(flat)) == flat


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------

class TestPartitionProperties:
    @given(
        side0=st.integers(2, 10),
        side1=st.integers(2, 10),
        m=st.integers(1, 8),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_label_partition_invariants(self, side0, side1, m, seed):
        """Any label assignment yields disjoint chunks covering Omega."""
        lat = Lattice((side0, side1))
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, m, lat.n_sites)
        p = Partition.from_labels(lat, labels)
        total = np.concatenate(p.chunks)
        assert np.array_equal(np.sort(total), np.arange(lat.n_sites))
        assert all(c.size > 0 for c in p.chunks)

    @given(
        side0=st.integers(1, 12), side1=st.integers(1, 12),
        coeff_a=st.integers(0, 4), coeff_b=st.integers(0, 4), m=st.integers(2, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_modular_tiling_agrees_with_checker(self, side0, side1, coeff_a, coeff_b, m):
        """Both finder branches agree on any shape, aligned or not.

        The symbolic borrow analysis of a tiling partition finds a
        conflict exactly when the site scan over the same labels does;
        each conflict is classified SR001 exactly when the residue
        predicate says the displacement collides on the infinite
        lattice; and on aligned shapes (sides multiples of m, wider than
        the conflict set) the residue predicate alone decides."""
        from repro.lint import lint_partition

        coeffs = (coeff_a, coeff_b)
        lat = Lattice((side0, side1))
        p = modular_tiling(lat, m, coeffs)
        scan = Partition.from_labels(lat, p.chunk_of())
        assert scan.tiling is None
        symbolic = p.find_conflicts(MODEL)
        assert (symbolic == []) == (scan.find_conflicts(MODEL) == [])
        for d in lint_partition(p, MODEL, limit=64):
            collides = residue_collides(coeffs, m, d.data["displacement"])
            assert (d.code == "SR001") == collides
        if side0 % m == side1 % m == 0 and min(side0, side1) > 4:
            proven = not any(
                residue_collides(coeffs, m, d) for d in conflict_witnesses(MODEL.reaction_types)
            )
            assert (symbolic == []) == proven

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_conflict_free_means_no_shared_touched_sites(self, seed):
        """Direct statement of the non-overlap rule: pick any chunk and
        any two distinct sites in it; their union neighborhoods are
        disjoint."""
        lat = Lattice((10, 10))
        p = five_chunk_partition(lat)
        rng = np.random.default_rng(seed)
        chunk = p.chunks[rng.integers(0, p.m)]
        s, t = rng.choice(chunk, size=2, replace=False)
        offs = MODEL.union_neighborhood()
        nb_s = {int(lat.neighbor_map(o)[s]) for o in offs}
        nb_t = {int(lat.neighbor_map(o)[t]) for o in offs}
        assert not (nb_s & nb_t)


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------

class TestKernelProperties:
    @given(seed=st.integers(0, 2**31), chunk_idx=st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_sequential_on_chunks(self, seed, chunk_idx):
        """The core commutation property behind the paper's parallelism."""
        lat = Lattice((10, 10))
        comp = MODEL.compile(lat)
        p = five_chunk_partition(lat)
        rng = np.random.default_rng(seed)
        state0 = rng.integers(0, 3, lat.n_sites).astype(np.uint8)
        chunk = p.chunks[chunk_idx]
        types = draw_types(rng, comp.type_cum, chunk.size)
        a, b = state0.copy(), state0.copy()
        na = run_trials_sequential(a, comp, chunk, types)
        nb = run_trials_batch(b, comp, chunk, types)
        assert na == nb
        assert np.array_equal(a, b)

    @given(seed=st.integers(0, 2**31), n_trials=st.integers(1, 300))
    @settings(max_examples=30, deadline=None)
    def test_duplicates_batch_equals_sequential(self, seed, n_trials):
        lat = Lattice((10, 10))
        comp = MODEL.compile(lat)
        p = five_chunk_partition(lat)
        rng = np.random.default_rng(seed)
        state0 = rng.integers(0, 3, lat.n_sites).astype(np.uint8)
        chunk = p.chunks[int(rng.integers(0, 5))]
        sites = chunk[rng.integers(0, chunk.size, n_trials)]
        types = draw_types(rng, comp.type_cum, n_trials)
        a, b = state0.copy(), state0.copy()
        na = run_trials_sequential(a, comp, sites, types)
        nb = run_trials_batch_with_duplicates(b, comp, sites, types)
        assert na == nb
        assert np.array_equal(a, b)

    @given(
        values=st.lists(st.integers(0, 8), min_size=1, max_size=60)
    )
    @settings(max_examples=60, deadline=None)
    def test_occurrence_index_definition(self, values):
        arr = np.array(values)
        occ = _occurrence_index(arr)
        for i, v in enumerate(values):
            assert occ[i] == values[:i].count(v)

    @given(seed=st.integers(0, 2**31), n_trials=st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_state_codes_stay_valid(self, seed, n_trials):
        """No trial stream can write a code outside the species domain."""
        lat = Lattice((8, 8))
        comp = MODEL.compile(lat)
        rng = np.random.default_rng(seed)
        state = rng.integers(0, 3, lat.n_sites).astype(np.uint8)
        sites = rng.integers(0, lat.n_sites, n_trials).astype(np.intp)
        types = draw_types(rng, comp.type_cum, n_trials)
        run_trials_sequential(state, comp, sites, types)
        assert state.max(initial=0) < len(MODEL.species)


# ----------------------------------------------------------------------
# conservation laws under simulation
# ----------------------------------------------------------------------

class TestConservationProperties:
    @given(seed=st.integers(0, 2**31), density=st.floats(0.05, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_diffusion_conserves_particles_under_pndca(self, seed, density):
        from repro.ca import PNDCA
        from repro.models import diffusion_model_2d, random_gas

        model = diffusion_model_2d()
        lat = Lattice((10, 10))
        rng = np.random.default_rng(seed)
        initial = random_gas(lat, model, density, rng)
        n0 = int(initial.counts()[1])
        p = five_chunk_partition(lat)
        sim = PNDCA(model, lat, seed=seed, partition=p, initial=initial)
        res = sim.run(until=2.0)
        assert int(res.final_state.counts()[1]) == n0

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_pt100_species_conserved_total(self, seed):
        from repro.dmc import RSM
        from repro.models import hex_surface, pt100_model

        model = pt100_model()
        lat = Lattice((5, 5))
        sim = RSM(model, lat, seed=seed, initial=hex_surface(lat, model))
        res = sim.run(until=1.0)
        counts = res.final_state.counts()
        assert counts.sum() == lat.n_sites
        # O never occupies a hex-phase site (no such species exists):
        # every code stays within the 5-species domain
        assert res.final_state.array.max() < 5
