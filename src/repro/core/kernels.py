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

Two further kernels lift the batch idea one axis higher, onto stacked
``(R, N)`` ensembles of R independent replicas (:mod:`repro.ensemble`):

* :func:`run_trials_stacked` — one conflict-free batch spanning many
  replicas at once (replica rows are disjoint, so cross-replica trials
  can never conflict).  Mixed reaction types are handled in a single
  gather/scatter through padded per-type tables
  (:func:`ensemble_tables`) instead of a per-type loop.

* :func:`run_trials_interleaved` — *exact* sequential semantics for R
  per-replica trial streams, executed concurrently: each replica's
  stream is cut greedily into conflict-free prefixes (a conservative
  site-difference LUT, :func:`conflict_lut`, detects potential
  footprint overlaps), and the union of the current prefixes across
  replicas runs as one simultaneous batch.  Because every batch is
  pairwise footprint-disjoint, the reactions commute and the result is
  bit-identical to running each replica through
  :func:`run_trials_sequential`.
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
    "run_trials_stacked",
    "run_trials_interleaved",
    "execute_type_everywhere",
    "seq_tables",
    "ensemble_tables",
    "conflict_lut",
]


# ----------------------------------------------------------------------
# sequential kernel
# ----------------------------------------------------------------------

def _table_key(compiled: CompiledModel) -> tuple:
    """Cache key tying derived tables to the exact model/lattice binding.

    Derived tables (:func:`seq_tables`, :func:`ensemble_tables`,
    :func:`conflict_lut`) are memoised on the compiled-model instance.
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


# ----------------------------------------------------------------------
# stacked-ensemble kernels: R independent replicas on an (R, N) state
# ----------------------------------------------------------------------

def ensemble_tables(
    compiled: CompiledModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Padded per-type tables for mixed-type simultaneous execution.

    Returns ``(tmap, csrc, ctgt)`` with shapes ``(C, T * N)`` /
    ``(C, T)`` / ``(C, T)`` where ``C`` is the maximum number of
    changes over all reaction types.  Types with fewer changes repeat
    their first change: matching the same site twice against the same
    source and writing the same target twice is idempotent, so padding
    never alters semantics.

    The layout is chosen for gather speed: with the combined key
    ``base = type * N + site`` every per-change lookup is a *1-d* fancy
    gather ``tmap[c][base]`` / ``csrc[c][types]``.  The equivalent
    ``(T, C, N)`` layout needs two advanced indices per gather
    (``pmap[types, :, sites]``), which numpy serves through a ~10x
    slower generic take path.  With these tables a whole mixed-type
    trial batch matches and executes in ``O(C)`` cheap gathers instead
    of a python loop over the distinct types.

    Cached on the compiled model, keyed like :func:`seq_tables`.
    """
    key = _table_key(compiled)
    cached = getattr(compiled, "_ensemble_tables", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    n_types = len(compiled.types)
    c_max = max(len(ct.maps) for ct in compiled.types)
    n = compiled.n_sites
    # int32 indices halve the memory traffic of the dominant gathers;
    # they address the flat (R*N,) state, so this caps R * N at 2**31
    # (far beyond any ensemble that fits in memory for such an N)
    idx_dtype = np.int32 if n < 2**31 else np.intp
    tmap = np.empty((c_max, n_types * n), dtype=idx_dtype)
    csrc = np.empty((c_max, n_types), dtype=np.uint8)
    ctgt = np.empty((c_max, n_types), dtype=np.uint8)
    for t, ct in enumerate(compiled.types):
        for c in range(c_max):
            cc = c if c < len(ct.maps) else 0
            tmap[c, t * n : (t + 1) * n] = ct.maps[cc]
            csrc[c, t] = ct.srcs[cc]
            ctgt[c, t] = ct.tgts[cc]
    tables = (tmap, csrc, ctgt)
    compiled._ensemble_tables = (key, tables)  # type: ignore[attr-defined]
    return tables


def conflict_lut(compiled: CompiledModel) -> np.ndarray:
    """Conservative site-pair conflict table on flat-index differences.

    Boolean array of length ``2N - 1`` indexed by
    ``(s_i - s_j) + (N - 1)``: True whenever trials anchored at flat
    sites ``s_i`` and ``s_j`` *may* have overlapping footprints.  Built
    from the model's conflict-displacement difference set plus the zero
    displacement (a repeated anchor always conflicts with itself).

    Flat differences mix the row and column terms: for a displacement
    ``(dr, dc)`` on an ``(L0, L1)`` lattice the column term is either
    ``dc % L1`` or ``dc % L1 - L1`` (periodic borrow) and the row term
    contributes modulo ``N``, so each displacement registers several
    entries.  Some of them are unreachable — the table is a *superset*
    of the true conflict relation, which is exactly what the windowed
    executor needs: a false positive only cuts a prefix early (extra
    sequentialisation, same result); a false negative would break
    exactness.

    Cached on the compiled model, keyed like :func:`seq_tables`.
    """
    key = _table_key(compiled)
    cached = getattr(compiled, "_conflict_lut", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    from ..partition.conflicts import model_witnesses

    n = compiled.n_sites
    shape = compiled.lattice.shape
    displacements = [*model_witnesses(compiled.model), (0,) * compiled.lattice.ndim]
    lut = np.zeros(2 * n - 1, dtype=bool)
    for d in displacements:
        if compiled.lattice.ndim == 1:
            bases = [d[0] % shape[0]]
        else:
            dr, dc = d
            l0, l1 = shape
            bases = [(dr % l0) * l1 + dcc for dcc in (dc % l1, dc % l1 - l1)]
        for base in bases:
            for diff in (base % n, base % n - n):
                if -(n - 1) <= diff <= n - 1:
                    lut[diff + n - 1] = True
    compiled._conflict_lut = (key, lut)  # type: ignore[attr-defined]
    return lut


@kernel(writes=("counts",))
def _stacked_counts(
    counts: np.ndarray, reps: np.ndarray, types: np.ndarray, mask: np.ndarray
) -> None:
    """Accumulate executed trials into a per-replica ``(R, T)`` table.

    The scatter-free formulation: duplicates in ``(rep, type)`` pairs
    are *expected* here, so the accumulation runs through
    ``np.bincount`` on the combined key followed by one whole-array
    ``+=`` — a reduce, not a fancy-index scatter, hence immune to the
    lost update a repeated index causes in ``counts[idx] += 1``.
    """
    n_types = counts.shape[1]
    hits = np.bincount(
        reps[mask] * n_types + types[mask], minlength=counts.size
    )
    counts += hits.reshape(counts.shape)


@kernel(
    writes=("states", "counts"),
    shapes={"states": ("R", "N"), "counts": ("R", "T")},
    dtypes={"states": "uint8", "counts": "int64"},
)
def run_trials_stacked(
    states: np.ndarray,
    compiled: CompiledModel,
    reps: np.ndarray,
    sites: np.ndarray,
    types: np.ndarray,
    counts: np.ndarray | None = None,
) -> int:
    """Execute one conflict-free trial batch spanning many replicas.

    Parameters
    ----------
    states:
        Stacked ``(R, N)`` ``uint8`` configuration array (C-contiguous),
        mutated in place.
    reps, sites, types:
        Equal-length trial streams: replica row, anchor site (flat index
        within the replica), reaction type.  Within each replica the
        sites must be pairwise conflict-free (e.g. distinct sites of one
        validated partition chunk); trials of different replicas can
        never conflict because their rows are disjoint.
    counts:
        Optional ``(R, T)`` ``int64`` array; executed trials are
        accumulated per replica and type.

    Returns the number executed.  Equivalent to running each replica's
    trials through :func:`run_trials_batch` on its own row, but in one
    simultaneous gather/scatter for all replicas and types.
    """
    if sites.size == 0:
        return 0
    tmap, csrc, ctgt = ensemble_tables(compiled)
    n = compiled.n_sites
    flat = states.reshape(-1)
    reps = np.asarray(reps, dtype=np.intp)
    sites = np.asarray(sites, dtype=np.intp)
    types = np.asarray(types, dtype=np.intp)
    base = types * n
    base += sites
    roff = (reps * n).astype(tmap.dtype, copy=False)
    mask, idx_cols = _match_flat(flat, tmap, csrc, base, types, roff)
    n_hit = int(np.count_nonzero(mask))
    if n_hit:
        _write_flat(flat, ctgt, idx_cols, types, mask)
    if counts is not None:
        _stacked_counts(counts, reps, types, mask)
    return n_hit


def _match_flat(
    flat: np.ndarray,
    tmap: np.ndarray,
    csrc: np.ndarray,
    base: np.ndarray,
    types: np.ndarray,
    roff: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Match all changes of a trial batch via per-change 1-d gathers.

    Returns the hit mask and the per-change footprint indices (into the
    flat cross-replica state) for reuse by the write phase.  All matching
    completes before any write, so the caller's per-change scatters see a
    consistent pre-batch state.
    """
    mask: np.ndarray | None = None
    idx_cols: list[np.ndarray] = []
    for c in range(tmap.shape[0]):
        ic = tmap[c][base]
        ic += roff
        eq = flat[ic] == csrc[c][types]
        mask = eq if mask is None else mask & eq
        idx_cols.append(ic)
    assert mask is not None  # every reaction type has >= 1 change
    return mask, idx_cols


@kernel(writes=("flat",))
def _write_flat(
    flat: np.ndarray,
    ctgt: np.ndarray,
    idx_cols: list[np.ndarray],
    types: np.ndarray,
    mask: np.ndarray,
) -> None:
    """Scatter targets of the hit trials, one change column at a time.

    Footprints of distinct trials in a conflict-free batch are disjoint,
    so per-column scatters cannot interfere across trials; within one
    trial later columns win on a repeated site, matching the in-memory
    order of the previous single fancy-scatter formulation (and padded
    columns rewrite change 0's value — idempotent).
    """
    h_types = types[mask]
    for c in range(len(idx_cols)):
        flat[idx_cols[c][mask]] = ctgt[c][h_types]


@kernel(
    writes=("states", "counts"),
    shapes={
        "states": ("R", "N"),
        "sites": ("R", "B"),
        "types": ("R", "B"),
        "counts": ("R", "T"),
    },
    dtypes={"states": "uint8", "counts": "int64"},
)
def run_trials_interleaved(
    states: np.ndarray,
    compiled: CompiledModel,
    sites: np.ndarray,
    types: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    counts: np.ndarray | None = None,
    window: int = 16,
) -> int:
    """Exact sequential semantics for R trial streams, run concurrently.

    Parameters
    ----------
    states:
        Stacked ``(R, N)`` ``uint8`` configuration array, mutated in
        place.
    sites, types:
        ``(R, B)`` per-replica trial streams with strict sequential
        semantics — within a replica, each trial must see the writes of
        all its predecessors.
    starts, stops:
        Per-replica half-open ranges ``[starts[r], stops[r])`` of the
        stream to execute (a replica with ``starts[r] == stops[r]``
        is skipped).
    counts:
        Optional ``(R, T)`` ``int64`` per-replica/type executed counts.
    window:
        Lookahead per replica per round (performance knob only).

    The kernel advances all replicas in rounds.  Each round inspects the
    next ``window`` trials of every replica, cuts the stream at the
    first pair of trials whose anchors *may* conflict (conservative
    check via :func:`conflict_lut` on flat site differences), and
    executes the union of the conflict-free prefixes of all replicas as
    one simultaneous cross-replica batch.  Within a prefix the trials
    are pairwise footprint-disjoint, so they commute: the outcome is
    bit-identical to :func:`run_trials_sequential` applied per replica.

    Returns the number executed.
    """
    n = compiled.n_sites
    tmap, csrc, ctgt = ensemble_tables(compiled)
    lut = conflict_lut(compiled)
    flat = states.reshape(-1)
    n_reps, n_blk = sites.shape
    w = max(2, int(window))
    ii, jj = np.tril_indices(w, -1)
    ptr = np.asarray(starts, dtype=np.intp).copy()
    stops = np.asarray(stops, dtype=np.intp)
    col = np.arange(w, dtype=np.intp)
    rows = np.arange(n_reps, dtype=np.intp)[:, None]
    offsets = (np.arange(n_reps, dtype=np.intp) * n).astype(tmap.dtype, copy=False)
    n_exec = 0
    while True:
        remaining = np.maximum(stops - ptr, 0)
        if not remaining.any():
            break
        # window of upcoming sites; exhausted replicas read clipped
        # (ignored) positions — clipping can only *add* conflicts at
        # indices >= remaining, which the `remaining` clamp discards
        take = np.minimum(ptr[:, None] + col, n_blk - 1)
        s_win = sites[rows, take]
        conf = lut[(s_win[:, ii] - s_win[:, jj]) + (n - 1)]
        firstbad = np.where(conf, ii, w).min(axis=1)
        length = np.minimum(firstbad, remaining)
        sel = col < length[:, None]
        rr, cc = np.nonzero(sel)
        b_types = types[rr, ptr[rr] + cc]
        base = b_types * n
        base += s_win[rr, cc]
        mask, idx_cols = _match_flat(flat, tmap, csrc, base, b_types, offsets[rr])
        n_hit = int(np.count_nonzero(mask))
        if n_hit:
            _write_flat(flat, ctgt, idx_cols, b_types, mask)
        if counts is not None:
            _stacked_counts(counts, rr, b_types, mask)
        n_exec += n_hit
        ptr += length
    return n_exec


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
