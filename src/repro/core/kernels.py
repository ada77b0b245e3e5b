"""Simulation kernels: the two execution primitives all algorithms share.

Every algorithm in the paper reduces to a stream of *trials*
``(site, reaction type)`` executed against the state:

* :func:`run_trials_sequential` — executes trials strictly one after
  another.  This is the exact semantics of RSM/NDCA and the fallback
  for partitions that are not conflict-free (the ``m = 1`` limit of
  L-PNDCA).  The loop is the package's hot path and is written
  accordingly: per-type tables are pre-bound as python lists, the state
  is accessed through a ``memoryview`` (scalar indexing on a
  memoryview is several times faster than on a numpy array), and all
  per-trial random numbers are drawn in blocks by the callers.

* :func:`run_trials_batch` — executes a set of trials *simultaneously*
  as vectorised numpy gathers/scatters.  This is only correct when the
  trial sites are pairwise conflict-free (distinct sites of one chunk
  of a validated partition): disjoint neighborhoods make the individual
  reactions commute, so any interleaving — including the simultaneous
  one — produces the same state.  This kernel is the package's
  realisation of the paper's chunk-parallelism (SIMD instead of
  multiple processors; the multiprocessing executor in
  :mod:`repro.parallel.executor` distributes exactly these batches).

* :func:`run_trials_batch_with_duplicates` — occurrence-batched variant
  for trial streams that may name the same site several times (L-PNDCA
  samples sites with replacement).  Trials are split into rounds such
  that each round touches each site at most once; per-site order is
  preserved, which (by commutation across distinct sites) reproduces
  the sequential result exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .compiled import CompiledModel, CompiledType
from .contracts import kernel

__all__ = [
    "run_trials_sequential",
    "run_trials_batch",
    "run_trials_batch_with_duplicates",
    "execute_type_everywhere",
    "seq_tables",
]


# ----------------------------------------------------------------------
# sequential kernel
# ----------------------------------------------------------------------

def _table_key(compiled: CompiledModel) -> tuple:
    """Cache key tying derived tables to the exact model/lattice binding.

    Derived tables (:func:`seq_tables` and the ``cnative`` stencil) are
    memoised on the compiled-model instance.
    A ``CompiledModel`` is constructed for one lattice, but nothing
    stops a caller from mutating the binding or reusing an instance
    across lattices of different shapes — the key makes a stale cache
    impossible: tables are rebuilt whenever the bound lattice shape or
    the type list no longer matches what they were built from.
    """
    return (compiled.lattice.shape, len(compiled.types))


def seq_tables(compiled: CompiledModel) -> list[tuple[list, list[int], list[int]]]:
    """Per-type ``(maps, srcs, tgts)`` with maps as python lists.

    Cached on the compiled model (keyed by the lattice shape and type
    count, see :func:`_table_key`).  Python-list neighbour maps make the
    sequential loop ~2x faster than numpy fancy-indexing scalars at the
    cost of ``O(n_types * pattern_size * N)`` ints of memory — fine for
    the lattice sizes the sequential path is used on.
    """
    key = _table_key(compiled)
    cached = getattr(compiled, "_seq_tables", None)
    if cached is None or cached[0] != key:
        tables = [
            (
                [m.tolist() for m in ct.maps],
                ct.srcs,
                ct.tgts,
            )
            for ct in compiled.types
        ]
        cached = (key, tables)
        compiled._seq_tables = cached  # type: ignore[attr-defined]
    return cached[1]


@kernel(
    writes=("state", "counts", "record"),
    dtypes={"state": "uint8", "counts": "int64"},
)
def run_trials_sequential(
    state: np.ndarray,
    compiled: CompiledModel,
    sites: np.ndarray | Sequence[int],
    types: np.ndarray | Sequence[int],
    counts: np.ndarray | None = None,
    record: list | None = None,
) -> int:
    """Execute trials one at a time; returns the number executed.

    Parameters
    ----------
    state:
        Flat ``uint8`` configuration array, mutated in place.
    sites, types:
        Equal-length trial streams (anchor site flat index, reaction
        type index).
    counts:
        Optional ``int64`` array of length ``n_types``; executed trials
        are accumulated per type.
    record:
        Optional list; for every *executed* trial the tuple
        ``(trial_index, type_index, site)`` is appended (used by the
        waiting-time / correctness analyses).
    """
    tables = seq_tables(compiled)
    mv = memoryview(state)
    site_list = sites.tolist() if isinstance(sites, np.ndarray) else list(sites)
    type_list = types.tolist() if isinstance(types, np.ndarray) else list(types)
    if len(site_list) != len(type_list):
        raise ValueError("sites and types must have equal length")
    n_exec = 0
    if record is None and counts is None:
        # tightest variant of the loop (no bookkeeping)
        for s, t in zip(site_list, type_list):
            maps, srcs, tgts = tables[t]
            for m, v in zip(maps, srcs):
                if mv[m[s]] != v:
                    break
            else:
                for m, v in zip(maps, tgts):
                    mv[m[s]] = v
                n_exec += 1
        return n_exec
    for i, (s, t) in enumerate(zip(site_list, type_list)):
        maps, srcs, tgts = tables[t]
        for m, v in zip(maps, srcs):
            if mv[m[s]] != v:
                break
        else:
            for m, v in zip(maps, tgts):
                mv[m[s]] = v
            n_exec += 1
            if counts is not None:
                counts[t] += 1
            if record is not None:
                record.append((i, t, s))
    return n_exec


# ----------------------------------------------------------------------
# batched (conflict-free) kernels
# ----------------------------------------------------------------------

@kernel(writes=("state", "counts"), dtypes={"state": "uint8", "counts": "int64"})
def run_trials_batch(
    state: np.ndarray,
    compiled: CompiledModel,
    sites: np.ndarray,
    types: np.ndarray,
    counts: np.ndarray | None = None,
) -> int:
    """Execute a conflict-free trial batch simultaneously (vectorised).

    ``sites`` must be pairwise conflict-free for the model (distinct
    sites of a single chunk of a partition for which
    :meth:`repro.partition.Partition.is_conflict_free` holds, the
    condition :func:`repro.lint.preflight_partition` gates).  The
    result is then identical to executing the trials sequentially in
    any order.  Returns the number executed.
    """
    sites = np.asarray(sites, dtype=np.intp)
    types = np.asarray(types, dtype=np.intp)
    if sites.shape != types.shape:
        raise ValueError("sites and types must have equal length")
    n_exec = 0
    if sites.size == 0:
        return 0
    for t in np.unique(types):
        sel = sites[types == t]
        n = _execute_masked(state, compiled.types[t], sel)
        n_exec += n
        if counts is not None:
            counts[t] += n
    return n_exec


@kernel(writes=("state",))
def _execute_masked(state: np.ndarray, ct: CompiledType, sel: np.ndarray) -> int:
    """Match one type at many anchors and execute where enabled.

    ``sel`` must be duplicate-free and ``ct.maps`` are injective
    periodic neighbour maps, so every per-change footprint gather
    ``m[hits]`` is itself duplicate-free and the target scatters cannot
    lose an update.
    """
    if sel.size == 0:
        return 0
    mask = state[ct.maps[0][sel]] == ct.srcs[0]
    for m, v in zip(ct.maps[1:], ct.srcs[1:]):
        mask &= state[m[sel]] == v
    hits = sel[mask]
    if hits.size:
        for m, v in zip(ct.maps, ct.tgts):
            state[m[hits]] = v
    return int(hits.size)


@kernel(writes=("state", "counts"), dtypes={"state": "uint8", "counts": "int64"})
def run_trials_batch_with_duplicates(
    state: np.ndarray,
    compiled: CompiledModel,
    sites: np.ndarray,
    types: np.ndarray,
    counts: np.ndarray | None = None,
) -> int:
    """Vectorised execution of a trial stream that may repeat sites.

    The stream is partitioned into occurrence rounds: round ``r``
    contains the ``r``-th trial of every site.  Rounds run in order and
    each round is a conflict-free batch (pairwise-distinct sites).
    Per-site trial order is preserved, so — given that distinct sites
    of the stream are conflict-free, as inside a partition chunk — the
    final state equals that of :func:`run_trials_sequential` on the
    same stream.
    """
    sites = np.asarray(sites, dtype=np.intp)
    types = np.asarray(types, dtype=np.intp)
    if sites.size == 0:
        return 0
    occ = _occurrence_index(sites)
    n_rounds = int(occ.max()) + 1
    if n_rounds == 1:
        return run_trials_batch(state, compiled, sites, types, counts)
    n_exec = 0
    for r in range(n_rounds):
        pick = occ == r
        n_exec += run_trials_batch(state, compiled, sites[pick], types[pick], counts)
    return n_exec


def _occurrence_index(sites: np.ndarray) -> np.ndarray:
    """For each element, how many earlier elements have the same value.

    >>> _occurrence_index(np.array([7, 3, 7, 7, 3]))
    array([0, 0, 1, 2, 1])
    """
    _, inv = np.unique(sites, return_inverse=True)
    order = np.argsort(inv, kind="stable")
    sorted_inv = inv[order]
    group_start = np.concatenate(([True], sorted_inv[1:] != sorted_inv[:-1]))
    # index within each group = position - position of group start
    idx = np.arange(sites.size)
    start_pos = idx[group_start][np.cumsum(group_start) - 1]
    occ_sorted = idx - start_pos
    occ = np.empty(sites.size, dtype=np.intp)
    occ[order] = occ_sorted
    return occ


@kernel(writes=("state",), dtypes={"state": "uint8"})
def execute_type_everywhere(
    state: np.ndarray,
    compiled: CompiledModel,
    type_index: int,
    sites: np.ndarray,
) -> int:
    """Execute one reaction type at every given anchor where enabled.

    Used by the reaction-type-partitioned algorithm (paper section 5,
    "another approach"): one oriented reaction type is applied to all
    sites of a chunk at once.  ``sites`` must be conflict-free *for
    this single type* (e.g. a checkerboard chunk for a two-site
    pattern).  Returns the number executed.
    """
    return _execute_masked(
        state, compiled.types[type_index], np.asarray(sites, dtype=np.intp)
    )
