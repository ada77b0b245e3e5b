"""Unit tests for repro.core.kernels — the execution hot paths."""

import numpy as np
import pytest

from repro.core import Configuration, Lattice
from repro.core.kernels import (
    _occurrence_index,
    execute_type_everywhere,
    run_trials_batch,
    run_trials_batch_with_duplicates,
    run_trials_sequential,
    seq_tables,
)
from repro.partition import five_chunk_partition
from repro.core.rng import draw_types


@pytest.fixture
def comp(ziff, small_lattice):
    return ziff.compile(small_lattice)


def empty_state(ziff, small_lattice):
    return Configuration.empty(small_lattice, ziff.species).array


class TestSequential:
    def test_executes_enabled(self, comp, ziff, small_lattice):
        state = empty_state(ziff, small_lattice)
        t = ziff.type_index("CO_ads")
        n = run_trials_sequential(state, comp, [0, 1, 2], [t, t, t])
        assert n == 3
        assert state[:3].tolist() == [1, 1, 1]

    def test_skips_disabled(self, comp, ziff, small_lattice):
        state = empty_state(ziff, small_lattice)
        t = ziff.type_index("CO+O(0)")  # needs CO/O, lattice is empty
        n = run_trials_sequential(state, comp, [0, 1], [t, t])
        assert n == 0
        assert not state.any()

    def test_sequential_dependencies_respected(self, comp, ziff, small_lattice):
        # second trial targets the site the first just filled
        state = empty_state(ziff, small_lattice)
        t = ziff.type_index("CO_ads")
        n = run_trials_sequential(state, comp, [0, 0], [t, t])
        assert n == 1  # second attempt sees CO and is disabled

    def test_counts_accumulated(self, comp, ziff, small_lattice):
        state = empty_state(ziff, small_lattice)
        counts = np.zeros(comp.n_types, dtype=np.int64)
        t = ziff.type_index("CO_ads")
        run_trials_sequential(state, comp, [0, 1], [t, t], counts=counts)
        assert counts[t] == 2
        assert counts.sum() == 2

    def test_record_collects_executed_only(self, comp, ziff, small_lattice):
        state = empty_state(ziff, small_lattice)
        t_ads = ziff.type_index("CO_ads")
        t_rx = ziff.type_index("CO+O(0)")
        record = []
        run_trials_sequential(
            state, comp, [0, 1, 2], [t_ads, t_rx, t_ads], record=record
        )
        assert [(i, t) for i, t, _ in record] == [(0, t_ads), (2, t_ads)]

    def test_length_mismatch(self, comp, ziff, small_lattice):
        state = empty_state(ziff, small_lattice)
        with pytest.raises(ValueError):
            run_trials_sequential(state, comp, [0, 1], [0])

    def test_seq_tables_cached(self, comp):
        assert seq_tables(comp) is seq_tables(comp)


class TestBatch:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sequential_on_fuzzed_conflict_free_sites(
        self, comp, ziff, small_lattice, seed
    ):
        """Property: on any contract-valid (conflict-free) fuzzed case
        the vectorised batch equals the sequential oracle exactly.

        The cases come from the contract-driven generator
        (:func:`repro.backends.fuzz.fuzz_case`): random states, random
        greedy conflict-free anchor sets, random type streams — not a
        hand-picked partition chunk.
        """
        from repro.backends.fuzz import fuzz_case

        rng = np.random.default_rng(seed)
        kwargs = fuzz_case(comp, "run_trials_batch", rng)
        a = kwargs["state"].copy()
        b = kwargs["state"].copy()
        n_a = run_trials_sequential(a, comp, kwargs["sites"], kwargs["types"])
        n_b = run_trials_batch(b, comp, kwargs["sites"], kwargs["types"])
        assert n_a == n_b
        assert np.array_equal(a, b)

    def test_matches_sequential_on_degenerate_lattice(self, ziff):
        """The same property on a lattice no library tiling covers."""
        from repro.backends.fuzz import fuzz_case
        from repro.core import Lattice

        comp28 = ziff.compile(Lattice((2, 8)))
        for seed in range(3):
            kwargs = fuzz_case(comp28, "run_trials_batch", np.random.default_rng(seed))
            a = kwargs["state"].copy()
            b = kwargs["state"].copy()
            n_a = run_trials_sequential(a, comp28, kwargs["sites"], kwargs["types"])
            n_b = run_trials_batch(b, comp28, kwargs["sites"], kwargs["types"])
            assert n_a == n_b
            assert np.array_equal(a, b)

    def test_empty_batch(self, comp, ziff, small_lattice):
        state = empty_state(ziff, small_lattice)
        n = run_trials_batch(
            state, comp, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        )
        assert n == 0

    def test_counts(self, comp, ziff, small_lattice):
        state = empty_state(ziff, small_lattice)
        counts = np.zeros(comp.n_types, dtype=np.int64)
        t = ziff.type_index("CO_ads")
        sites = np.array([0, 5, 11], dtype=np.intp)
        run_trials_batch(state, comp, sites, np.full(3, t), counts=counts)
        assert counts[t] == 3

    def test_length_mismatch(self, comp, ziff, small_lattice):
        state = empty_state(ziff, small_lattice)
        with pytest.raises(ValueError):
            run_trials_batch(state, comp, np.array([0, 1]), np.array([0]))


class TestBatchWithDuplicates:
    def test_occurrence_index(self):
        occ = _occurrence_index(np.array([7, 3, 7, 7, 3]))
        assert occ.tolist() == [0, 0, 1, 2, 1]

    def test_occurrence_index_all_unique(self):
        assert _occurrence_index(np.array([4, 2, 9])).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sequential_on_fuzzed_repeat_streams(
        self, comp, ziff, small_lattice, seed
    ):
        """Property: with-replacement streams over a fuzzed
        conflict-free pool execute exactly like the sequential oracle
        (the occurrence-round decomposition is semantics-preserving)."""
        from repro.backends.fuzz import fuzz_case

        rng = np.random.default_rng(seed)
        kwargs = fuzz_case(comp, "run_trials_batch_with_duplicates", rng)
        a = kwargs["state"].copy()
        b = kwargs["state"].copy()
        n_a = run_trials_sequential(a, comp, kwargs["sites"], kwargs["types"])
        n_b = run_trials_batch_with_duplicates(
            b, comp, kwargs["sites"], kwargs["types"]
        )
        assert n_a == n_b
        assert np.array_equal(a, b)

    def test_empty(self, comp, ziff, small_lattice):
        state = empty_state(ziff, small_lattice)
        n = run_trials_batch_with_duplicates(
            state, comp, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        )
        assert n == 0


class TestExecuteTypeEverywhere:
    def test_single_site_type(self, comp, ziff, small_lattice):
        state = empty_state(ziff, small_lattice)
        t = ziff.type_index("CO_ads")
        n = execute_type_everywhere(state, comp, t, np.arange(small_lattice.n_sites))
        assert n == small_lattice.n_sites
        assert (state == 1).all()

    def test_pair_type_on_checkerboard(self, comp, ziff, small_lattice):
        from repro.partition import checkerboard

        state = empty_state(ziff, small_lattice)
        cb = checkerboard(small_lattice)
        t = ziff.type_index("O2_ads(0)")
        n = execute_type_everywhere(state, comp, t, cb.chunks[0])
        assert n == cb.chunks[0].size
        assert (state == 2).all()  # every site O: anchors + their partners


class TestDerivedTableCaches:
    """Derived tables must be keyed to the lattice/type binding.

    The caches live on the compiled-model instance; a stale attribute
    (copied instance, rebound lattice, unpickled object from another
    shape) must be detected via the key and rebuilt, never served.
    """

    def test_seq_tables_rebuilt_on_stale_cache(self, ziff):
        comp_a = ziff.compile(Lattice((6, 6)))
        comp_b = ziff.compile(Lattice((10, 10)))
        tables_a = seq_tables(comp_a)
        # simulate a stale cache: the 6x6 tables attached to the 10x10 model
        comp_b._seq_tables = comp_a._seq_tables
        tables_b = seq_tables(comp_b)
        assert tables_b is not tables_a
        # neighbour maps must address the 10x10 lattice (100 sites)
        assert len(tables_b[0][0][0]) == 100
        assert len(tables_a[0][0][0]) == 36

    def test_caches_hit_when_key_matches(self, ziff):
        comp = ziff.compile(Lattice((6, 6)))
        assert seq_tables(comp) is seq_tables(comp)

    def test_same_model_two_lattices_interleaved_use(self, ziff, rng):
        """Alternating kernel calls across two lattice sizes stay correct."""
        for side in (6, 10, 6, 10):
            lat = Lattice((side, side))
            comp = ziff.compile(lat)
            state = Configuration.empty(lat, ziff.species).array
            ref = state.copy()
            p5 = five_chunk_partition(lat)
            chunk = p5.chunks[0]
            types = draw_types(rng, comp.type_cum, chunk.size)
            run_trials_batch(state, comp, chunk, types)
            run_trials_sequential(ref, comp, chunk, types)
            assert np.array_equal(state, ref)
