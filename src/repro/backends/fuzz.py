"""Contract-driven property fuzzing for the dispatchable kernels.

The ``@kernel`` contracts (:mod:`repro.core.contracts`) describe every
dispatch kernel's argument space — symbolic shapes (``("R", "N")``)
and dtypes — and its write set; the kernel docstrings state the index
preconditions (conflict-free sites, per-replica streams).  This module
turns those into *generators of random valid inputs* and a
differential checker, so backend bit-identity is established
property-style over seeded random cases instead of hand-picked ones:

* :func:`argument_grid` resolves a kernel's declared symbolic
  shapes/dtypes against concrete dimension bindings.
* :func:`conflict_free_sites` samples a random *pairwise conflict-free*
  site set for any model/lattice — including degenerate shapes where
  the library partitions don't apply — by greedy footprint exclusion
  over the compiled neighbour maps.  This realises the precondition of
  the batch kernels; :func:`runtime_write_collisions` is its
  brute-force check on a given trial batch.
* :func:`fuzz_case` builds one random valid argument dict for a named
  dispatch kernel; :func:`compare_backends` runs the same case through
  several backends, each on fresh copies of every array or list
  argument, and reports any divergence (return value, written arrays,
  the ``record`` list) and any argument outside the reference
  contract's ``writes`` that a backend changed, as human-readable
  mismatch strings.

An empty :func:`compare_backends` result *is* the bit-identity claim
for that case; the suite in ``tests/test_backends.py`` asserts it over
models × shapes × seeds, and asserts the converse on seeded mutant
backends (the harness must catch a deliberately wrong twin).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from ..core.compiled import CompiledModel
from ..core.contracts import contract_of
from .registry import DISPATCH_KERNELS, resolve_backend

__all__ = [
    "ArgSpec",
    "argument_grid",
    "compare_backends",
    "conflict_free_sites",
    "fuzz_case",
    "fuzz_cases",
    "runtime_write_collisions",
]


@dataclass(frozen=True)
class ArgSpec:
    """Resolved allocation facts for one kernel parameter."""

    name: str
    shape: tuple[int, ...] | None  # None: undeclared (scalar/object)
    dtype: np.dtype | None


def argument_grid(
    fn: Callable[..., Any], bindings: Mapping[str, int]
) -> dict[str, ArgSpec]:
    """Concrete per-parameter shapes/dtypes from the kernel's contract.

    ``bindings`` maps the contract's symbolic dimension names (``"R"``,
    ``"N"``, ``"B"``, ``"T"``) to concrete sizes; parameters without a
    declared shape/dtype resolve to ``None`` entries.
    """
    contract = contract_of(fn)
    if contract is None:
        raise ValueError(f"{fn.__name__} carries no @kernel contract")
    grid: dict[str, ArgSpec] = {}
    for p in inspect.signature(fn).parameters:
        sym = contract.shapes.get(p)
        dtype = contract.dtypes.get(p)
        shape: tuple[int, ...] | None = None
        if sym is not None:
            resolved = []
            for dim in sym:
                if isinstance(dim, int):
                    resolved.append(dim)
                elif dim in bindings:
                    resolved.append(int(bindings[dim]))
                else:
                    resolved = None  # type: ignore[assignment]
                    break
            if resolved is not None:
                shape = tuple(resolved)
        grid[p] = ArgSpec(
            name=p,
            shape=shape,
            dtype=np.dtype(dtype) if dtype is not None else None,
        )
    return grid


# ----------------------------------------------------------------------
# valid-input generators
# ----------------------------------------------------------------------

def _footprints(compiled: CompiledModel) -> np.ndarray:
    """Stacked ``(K, N)`` union footprint maps over all reaction types.

    Column ``s`` is the set of flat sites any reaction anchored at
    ``s`` may read or write.  Two anchors with disjoint columns are
    conflict-free for *every* type assignment — the same guarantee a
    validated partition chunk provides.
    """
    cols = [m for ct in compiled.types for m in ct.maps]
    return np.stack(cols, axis=0)


def conflict_free_sites(
    compiled: CompiledModel,
    rng: np.random.Generator,
    max_n: int | None = None,
) -> np.ndarray:
    """A random pairwise conflict-free anchor set (greedy exclusion).

    Visits the lattice sites in a random order and keeps each site
    whose union reaction footprint does not intersect the footprints
    of the sites already kept.  Works on any lattice the model
    compiles against, degenerate shapes included; the result is valid
    for the ``disjoint`` precondition of ``run_trials_batch`` /
    ``run_trials_stacked`` under arbitrary type assignments.
    """
    fp = _footprints(compiled)
    n = compiled.n_sites
    order = rng.permutation(n)
    used = np.zeros(n, dtype=bool)
    keep: list[int] = []
    limit = n if max_n is None else int(max_n)
    for s in order.tolist():
        cells = fp[:, s]
        if used[cells].any():
            continue
        used[cells] = True
        keep.append(s)
        if len(keep) >= limit:
            break
    return np.array(keep, dtype=np.intp)


def runtime_write_collisions(
    compiled: CompiledModel, sites: np.ndarray, types: np.ndarray
) -> list[tuple[int, int, int]]:
    """Brute-force write-footprint collisions of one trial batch.

    Enumerates the *write* cells of every trial ``(site, type)`` through
    the compiled neighbour maps and reports every flat cell written by
    two distinct trials, as ``(cell, trial_i, trial_j)`` triples.  An
    empty result means a simultaneous scatter over this batch cannot
    lose updates.
    """
    owner: dict[int, int] = {}
    collisions: list[tuple[int, int, int]] = []
    for trial, (s, t) in enumerate(
        zip(np.asarray(sites).tolist(), np.asarray(types).tolist())
    ):
        for m in compiled.types[t].maps:
            cell = int(m[s])
            prev = owner.get(cell)
            if prev is not None and prev != trial:
                collisions.append((cell, prev, trial))
            else:
                owner[cell] = trial
    return collisions


def _draw_types(
    compiled: CompiledModel, rng: np.random.Generator, size: int
) -> np.ndarray:
    return rng.integers(0, len(compiled.types), size=size, dtype=np.intp)


def _random_state(
    compiled: CompiledModel, rng: np.random.Generator
) -> np.ndarray:
    n_species = 1 + int(
        max(max(ct.src_arr.max(), ct.tgt_arr.max()) for ct in compiled.types)
    )
    return rng.integers(0, n_species, compiled.n_sites, dtype=np.uint8)


def fuzz_case(
    compiled: CompiledModel,
    kernel_name: str,
    rng: np.random.Generator,
    *,
    n_replicas: int = 3,
    with_counts: bool = True,
    with_record: bool = False,
) -> dict[str, Any]:
    """One random *contract-valid* argument dict for a dispatch kernel.

    The allocation shapes/dtypes come from :func:`argument_grid`; the
    index preconditions (conflict-free anchors, per-replica streams,
    in-range half-open windows) come from the generators above.
    Returned arrays are fresh — callers may mutate them freely.
    """
    if kernel_name not in DISPATCH_KERNELS:
        raise ValueError(f"not a dispatch kernel: {kernel_name!r}")
    from ..core import kernels as _ref

    fn = getattr(_ref, kernel_name)
    n = compiled.n_sites
    n_types = len(compiled.types)
    grid = argument_grid(
        fn, {"R": n_replicas, "N": n, "T": n_types, "B": max(2 * n, 8)}
    )

    def counts_for(param: str, default_shape: tuple[int, ...]) -> np.ndarray:
        spec = grid.get(param)
        shape = spec.shape if spec and spec.shape else default_shape
        dtype = spec.dtype if spec and spec.dtype else np.dtype(np.int64)
        return np.zeros(shape, dtype=dtype)

    state_spec = grid.get("state") or grid.get("states")
    state_dtype = (
        state_spec.dtype if state_spec and state_spec.dtype else np.uint8
    )
    kwargs: dict[str, Any] = {"compiled": compiled}

    if kernel_name == "run_trials_sequential":
        # no precondition: arbitrary streams, repeats and all
        n_trials = int(rng.integers(0, 3 * n + 1))
        kwargs["state"] = _random_state(compiled, rng).astype(state_dtype)
        kwargs["sites"] = rng.integers(0, n, n_trials, dtype=np.intp)
        kwargs["types"] = _draw_types(compiled, rng, n_trials)
        if with_counts:
            kwargs["counts"] = counts_for("counts", (n_types,))
        if with_record:
            kwargs["record"] = []
    elif kernel_name == "run_trials_batch_with_duplicates":
        # valid streams repeat sites, but the *distinct* sites must be
        # conflict-free (the L-PNDCA with-replacement sampling shape)
        pool = conflict_free_sites(compiled, rng)
        n_trials = int(rng.integers(0, 3 * pool.size + 1))
        kwargs["state"] = _random_state(compiled, rng).astype(state_dtype)
        kwargs["sites"] = pool[rng.integers(0, pool.size, n_trials)]
        kwargs["types"] = _draw_types(compiled, rng, n_trials)
        if with_counts:
            kwargs["counts"] = counts_for("counts", (n_types,))
    elif kernel_name == "run_trials_batch":
        sites = conflict_free_sites(compiled, rng)
        kwargs["state"] = _random_state(compiled, rng).astype(state_dtype)
        kwargs["sites"] = sites
        kwargs["types"] = _draw_types(compiled, rng, sites.size)
        if with_counts:
            kwargs["counts"] = counts_for("counts", (n_types,))
    elif kernel_name == "execute_type_everywhere":
        kwargs["state"] = _random_state(compiled, rng).astype(state_dtype)
        kwargs["type_index"] = int(rng.integers(0, n_types))
        kwargs["sites"] = conflict_free_sites(compiled, rng)
    elif kernel_name == "run_trials_stacked":
        reps, sites = [], []
        for r in range(n_replicas):
            chunk = conflict_free_sites(compiled, rng)
            reps.append(np.full(chunk.size, r, dtype=np.intp))
            sites.append(chunk)
        reps_arr = np.concatenate(reps)
        sites_arr = np.concatenate(sites)
        states = np.ascontiguousarray(
            np.stack(
                [_random_state(compiled, rng) for _ in range(n_replicas)]
            ).astype(state_dtype)
        )
        kwargs["states"] = states
        kwargs["reps"] = reps_arr
        kwargs["sites"] = sites_arr
        kwargs["types"] = _draw_types(compiled, rng, sites_arr.size)
        if with_counts:
            kwargs["counts"] = counts_for("counts", (n_replicas, n_types))
    elif kernel_name == "run_trials_interleaved":
        spec = grid["sites"]
        n_blk = spec.shape[1] if spec.shape else max(2 * n, 8)
        states = np.ascontiguousarray(
            np.stack(
                [_random_state(compiled, rng) for _ in range(n_replicas)]
            ).astype(state_dtype)
        )
        starts = rng.integers(0, n_blk // 2, n_replicas).astype(np.intp)
        stops = starts + rng.integers(
            0, n_blk - n_blk // 2 + 1, n_replicas
        ).astype(np.intp)
        kwargs["states"] = states
        kwargs["sites"] = rng.integers(0, n, (n_replicas, n_blk), dtype=np.intp)
        kwargs["types"] = _draw_types(compiled, rng, (n_replicas, n_blk))
        kwargs["starts"] = starts
        kwargs["stops"] = stops
        if with_counts:
            kwargs["counts"] = counts_for("counts", (n_replicas, n_types))
    return kwargs


def fuzz_cases(
    compiled: CompiledModel,
    kernel_name: str,
    rng: np.random.Generator,
    n_cases: int,
    **opts: Any,
) -> Iterator[dict[str, Any]]:
    """``n_cases`` independent random cases for one dispatch kernel."""
    for _ in range(n_cases):
        yield fuzz_case(compiled, kernel_name, rng, **opts)


# ----------------------------------------------------------------------
# the differential checker
# ----------------------------------------------------------------------

def _written_params(kernel_name: str) -> tuple[str, ...]:
    """The reference contract's write set (what each backend may mutate)."""
    from ..core import kernels as _ref

    contract = contract_of(getattr(_ref, kernel_name))
    assert contract is not None
    return contract.writes


def _fresh(kwargs: Mapping[str, Any]) -> dict[str, Any]:
    """Copies of every array and list argument, other values shared."""
    out = dict(kwargs)
    for p, v in out.items():
        if isinstance(v, np.ndarray):
            out[p] = v.copy()
        elif isinstance(v, list):
            out[p] = list(v)
    return out


def _differs(a: Any, b: Any) -> str | None:
    """Why ``b`` is not ``a`` (``None`` when equal)."""
    if isinstance(a, np.ndarray):
        if a.shape != np.shape(b):
            return f"shape {a.shape} != {np.shape(b)}"
        if not np.array_equal(a, b):
            bad = int(np.count_nonzero(a != np.asarray(b)))
            return f"{bad} element(s) differ"
        return None
    return None if a == b else f"{a!r} != {b!r}"


def compare_backends(
    kernel_name: str,
    kwargs: Mapping[str, Any],
    backends: "tuple[Any, ...]" = ("numpy", "cnative"),
    *,
    label: str = "",
) -> list[str]:
    """Run one case through several backends; report every divergence.

    Each backend executes on fresh copies of every array and list
    argument.  Any argument outside the reference contract's ``writes``
    that a backend (the oracle included) changed is reported.  The
    first backend is the oracle; mismatch strings name the kernel, the
    diverging output and the backend pair.  An empty list is the
    bit-identity verdict for this case.
    """
    written = _written_params(kernel_name)
    where = f"{kernel_name}{f' [{label}]' if label else ''}"
    mismatches: list[str] = []
    runs: list[tuple[str, int, dict[str, Any]]] = []
    for spec in backends:
        backend = resolve_backend(spec, warn=False)
        impl = getattr(backend.kernel_set(), kernel_name)
        local = _fresh(kwargs)
        ret = impl(**local)
        runs.append((backend.name, int(ret), local))
        for p, v in kwargs.items():
            if p in written or not isinstance(v, (np.ndarray, list)):
                continue
            why = _differs(v, local[p])
            if why is not None:
                mismatches.append(
                    f"{where}: input {p!r} outside writes changed "
                    f"({backend.name}): {why}"
                )

    base_name, base_ret, base_kwargs = runs[0]
    for name, ret, local in runs[1:]:
        pair = f"{base_name} vs {name}"
        if ret != base_ret:
            mismatches.append(
                f"{where}: return value diverged ({pair}): "
                f"{base_ret} != {ret}"
            )
        for p in written:
            why = _differs(base_kwargs.get(p), local.get(p))
            if why is not None:
                mismatches.append(
                    f"{where}: output {p!r} diverged ({pair}): {why}"
                )
    return mismatches
