"""Evidence for the kernel tier: seeded kernel and draw mutants and what kills them.

The vectorised kernels are correct only if a simultaneous scatter over
a conflict-free batch never loses an update, every engine draws its
randoms from the stream its sequential twin uses, and no kernel writes
an argument outside its ``@kernel(writes=...)`` contract.
``TestKernelMutantsAreKilled`` (marked ``slow``; CI's backend-matrix
job runs it) breaks each of those promises in a copy of ``src/repro``
and runs the tests named as its killers against the copy
(``tests/mutants.py``).  DESIGN.md §8 lists the mutants and their
killers.

The fast classes check the ``@kernel`` registry and pit
:func:`repro.backends.fuzz.runtime_write_collisions` — a brute-force
enumeration of write-index collisions — against the ZGB, diffusion,
Ising and type-partitioned chunk batches.
"""

import numpy as np
import pytest

from repro.backends.fuzz import runtime_write_collisions
from repro.core import Lattice
from repro.core.contracts import (
    KERNEL_REGISTRY,
    KernelContract,
    contract_of,
    kernel,
    registered_kernels,
)
from repro.core.kernels import run_trials_batch_with_duplicates
from repro.models import diffusion_model_1d, ising_model_2d, zgb_model
from repro.partition import (
    checkerboard,
    five_chunk_partition,
    modular_tiling,
    split_by_orientation,
)

from .mutants import assert_control_passes, assert_mutant_killed

#: the modules whose kernels carry ``@kernel`` contracts
KERNEL_MODULES = (
    "repro.core.kernels",
    "repro.core.compiled",
    "repro.backends.cnative",
)


# ----------------------------------------------------------------------
# contract machinery
# ----------------------------------------------------------------------
class TestContracts:
    def test_decorator_registers_and_preserves(self):
        @kernel(writes=("out",), dtypes={"out": "uint8"})
        def k(out, x):
            out[:] = x

        assert k.__name__ == "k"
        c = contract_of(k)
        assert isinstance(c, KernelContract)
        assert c.writes == ("out",) and c.dtypes == {"out": "uint8"}
        assert KERNEL_REGISTRY[f"{k.__module__}.{k.__qualname__}"] is k

    def test_contract_of_undecorated_is_none(self):
        assert contract_of(lambda: None) is None

    def test_registered_kernels_cover_all_modules(self):
        kernels = registered_kernels(KERNEL_MODULES)
        names = {f.__name__ for f in kernels}
        assert {
            "run_trials_sequential",
            "run_trials_batch",
            "run_trials_batch_with_duplicates",
            "execute_type_everywhere",
            "_execute_masked",
            "execute",
            "c_run_trials_sequential",
        } <= names
        # every module contributes at least one kernel
        mods = {f.__module__ for f in kernels}
        assert set(KERNEL_MODULES) <= mods


# ----------------------------------------------------------------------
# seeded kernel and draw mutants
# ----------------------------------------------------------------------
_KERNELS = "core/kernels.py"
_REPLICAS = "tests/test_ensemble.py"
_KERNEL_TESTS = "tests/test_kernels.py"

#: name -> (file under src/repro, old text, new text, killer node ids)
MUTANTS = {
    # the duplicate-free chains behind the plain scatters
    "execute-masked-dedup-lost": (
        _KERNELS,
        "hits = sel[mask]",
        "hits = np.concatenate((sel, sel))",
        [
            f"{_KERNEL_TESTS}::TestBatch::test_counts",
            f"{_KERNEL_TESTS}::TestExecuteTypeEverywhere",
        ],
    ),
    "occurrence-rounds-dropped": (
        _KERNELS,
        "occ = _occurrence_index(sites)",
        "occ = np.zeros_like(sites)",
        [
            f"{_KERNEL_TESTS}::TestBatchWithDuplicates"
            "::test_matches_sequential_on_fuzzed_repeat_streams"
        ],
    ),
    # a kernel writing arguments outside its contract's writes: a
    # conflict-free batch is order-free, so only the inputs change
    "batch-reverses-its-inputs": (
        _KERNELS,
        '        raise ValueError("sites and types must have equal length")\n',
        '        raise ValueError("sites and types must have equal length")\n'
        "    sites[:] = sites[::-1].copy()\n"
        "    types[:] = types[::-1].copy()\n",
        [
            "tests/test_backends.py::TestUndeclaredWrites"
            "::test_reference_kernels_keep_undeclared_inputs"
        ],
    ),
    # draws: one extra draw on an engine's stream shifts every later one
    "rsm-extra-draw": (
        "dmc/rsm.py",
        "        types = draw_types(self.rng, comp.type_cum, n)\n",
        "        types = draw_types(self.rng, comp.type_cum, n)\n"
        "        self.rng.random()\n",
        [f"{_REPLICAS}::test_rsm_bit_identical"],
    ),
    "ndca-extra-draw": (
        "ca/ndca.py",
        "            sites = self.rng.permutation(n).astype(np.intp)\n",
        "            self.rng.random()\n"
        "            sites = self.rng.permutation(n).astype(np.intp)\n",
        [f"{_REPLICAS}::test_ndca_bit_identical"],
    ),
    # a bound chunk visit kept after state.array was rebound
    "stale-state-handle": (
        "dmc/base.py",
        "if self._visit_state is not self.state.array or",
        "if self._visit is None or",
        [
            "tests/test_executor.py::TestParallelPNDCA"
            "::test_mid_run_handover_to_shared_memory"
        ],
    ),
}


@pytest.mark.slow
class TestKernelMutantsAreKilled:
    def test_unmutated_copy_passes_every_killer(self, tmp_path):
        assert_control_passes(tmp_path, MUTANTS)

    @pytest.mark.parametrize("name", list(MUTANTS))
    def test_mutant_is_killed(self, name, tmp_path):
        assert_mutant_killed(tmp_path, name, MUTANTS)


# ----------------------------------------------------------------------
# runtime collision enumeration on partition chunk batches
# ----------------------------------------------------------------------
def _collision_free_chunks(model, lattice, partition, seed=0):
    comp = model.compile(lattice)
    rng = np.random.default_rng(seed)
    total = 0
    for chunk in partition.chunks:
        types = rng.integers(0, comp.n_types, size=chunk.size)
        collisions = runtime_write_collisions(comp, chunk, types)
        assert collisions == [], (
            f"{model.name}: chunk batch has write collisions {collisions[:3]}"
        )
        total += chunk.size
    assert total == lattice.n_sites


class TestDifferential:
    """Chunk batches never collide; adversarial batches do."""

    def test_zgb_five_chunk_batches_collision_free(self):
        lat = Lattice((10, 10))
        _collision_free_chunks(zgb_model(0.5), lat, five_chunk_partition(lat))

    def test_diffusion_modular_batches_collision_free(self):
        lat = Lattice((12,))
        part = modular_tiling(lat, 3, (1,))
        _collision_free_chunks(diffusion_model_1d(), lat, part)

    def test_ising_five_chunk_batches_collision_free(self):
        lat = Lattice((10, 10))
        _collision_free_chunks(
            ising_model_2d(beta=0.4), lat, five_chunk_partition(lat)
        )

    def test_typepart_single_type_checkerboard_collision_free(self):
        # type-partitioned CA precondition: per single type, the
        # checkerboard chunks are conflict-free — so single-type
        # batches cannot collide
        model = zgb_model(0.5)
        lat = Lattice((10, 10))
        comp = model.compile(lat)
        part = checkerboard(lat)
        split = split_by_orientation(model)
        for subset in split.subsets:
            for t in subset.type_indices:
                for chunk in part.chunks:
                    types = np.full(chunk.size, t, dtype=np.intp)
                    assert runtime_write_collisions(comp, chunk, types) == []

    def test_adversarial_duplicate_sites_collide(self):
        model = zgb_model(0.5)
        lat = Lattice((10, 10))
        comp = model.compile(lat)
        sites = np.array([0, 0], dtype=np.intp)
        types = np.zeros(2, dtype=np.intp)
        assert runtime_write_collisions(comp, sites, types)

    def test_adversarial_adjacent_pair_reactions_collide(self):
        model = zgb_model(0.5)
        lat = Lattice((10, 10))
        comp = model.compile(lat)
        # find a pair (two-change) reaction type and anchor it at two
        # sites one pair-axis step apart: footprints share a cell
        t = next(
            i for i, rt in enumerate(model.reaction_types)
            if len(rt.changes) == 2
        )
        off = next(
            c.offset for c in model.reaction_types[t].changes
            if any(c.offset)
        )
        s0 = 0
        s1 = int(comp.types[t].maps[1][s0]) if any(off) else 1
        sites = np.array([s0, s1], dtype=np.intp)
        types = np.full(2, t, dtype=np.intp)
        assert runtime_write_collisions(comp, sites, types)

    def test_duplicate_stream_matches_dedup_kernel(self):
        """Runtime collisions exist <-> the dedup kernel must be used.

        The adversarial stream has collisions, the naive batch kernel
        would lose updates, and the shipped occurrence-round kernel
        executes it with strict sequential semantics.
        """
        model = zgb_model(0.5)
        lat = Lattice((10, 10))
        comp = model.compile(lat)
        rng = np.random.default_rng(7)
        # repeats of conflict-free chunk sites: distinct sites cannot
        # conflict (the kernel's precondition), duplicates can
        chunk = five_chunk_partition(lat).chunks[0]
        sites = rng.choice(chunk, size=64, replace=True).astype(np.intp)
        types = rng.integers(0, comp.n_types, size=64).astype(np.intp)
        assert runtime_write_collisions(comp, sites, types)

        from repro.core.kernels import run_trials_sequential

        state_seq = np.zeros(lat.n_sites, dtype=np.uint8)
        state_dup = state_seq.copy()
        run_trials_sequential(state_seq, comp, sites, types)
        run_trials_batch_with_duplicates(state_dup, comp, sites, types)
        np.testing.assert_array_equal(state_seq, state_dup)
