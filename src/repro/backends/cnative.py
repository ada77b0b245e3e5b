"""The ``cnative`` backend: C translations of the trial-execution kernels.

The reference hot path (:func:`repro.core.kernels.run_trials_sequential`)
is an interpreted python loop over a ``memoryview``; this module
translates that loop — byte for byte the same state transitions — into
a small C library compiled once per source digest with the system C
compiler and loaded through ``ctypes``.  No third-party build machinery
is involved: the build is ``cc -O3 -shared -fPIC`` on a single
translation unit, cached on disk under a sha256 of the source, so the
compile cost is paid once per machine.

Bit-identity
------------
Each wrapper is declared (via ``@kernel(twin=...)``) a twin of its
NumPy reference and must be **bit-identical** to it on contract-valid
inputs — the differential suite in ``tests/test_backends.py`` enforces
this with exact array equality.  The C core executes trials strictly
one at a time, which reproduces every reference kernel exactly:

* ``run_trials_sequential`` — same semantics by construction (the C
  loop mirrors the python loop over :func:`seq_tables`).
* ``run_trials_batch`` — its contract requires pairwise conflict-free
  sites, under which the simultaneous scatter is *defined* to equal
  sequential execution in any order (disjoint footprints commute — the
  partition non-overlap theorem).
* ``run_trials_batch_with_duplicates`` — documented to equal
  sequential execution on its valid inputs (occurrence rounds preserve
  per-site order; distinct sites commute).

``execute_type_everywhere`` has no twin: applying one type to a
conflict-free chunk is a whole-array scatter, where the NumPy reference
beats a one-trial-at-a-time C loop, so :class:`KernelSet` falls back to
it.

All randomness is drawn by the engines *before* these kernels run, so
the backend cannot perturb RNG streams (draw-parity is asserted
through ``CountingGenerator`` in the differential suite).

Safety
------
The wrappers validate everything the C code would otherwise trust:
dtype/contiguity of the state and table arrays, equal stream lengths,
and site/type bounds.  Inputs the C core cannot represent (e.g. a
non-contiguous state view) fall back to the NumPy reference rather
than fail — per-call graceful degradation, mirroring the registry's
fallback to ``numpy`` when a backend is unavailable.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core import kernels as _ref
from ..core.compiled import CompiledModel
from ..core.contracts import kernel
from ..core.kernels import _table_key
from .registry import Backend, register_backend

__all__ = [
    "CNativeBackend",
    "c_run_trials_batch",
    "c_run_trials_batch_with_duplicates",
    "c_run_trials_sequential",
    "cnative_available",
    "cnative_tables",
    "library_path",
]

#: cache-dir override for the compiled shared object
CACHE_ENV = "REPRO_CNATIVE_CACHE"

_C_SOURCE = r"""
#include <stdint.h>

/* Execute a trial stream strictly one trial at a time against a flat
 * uint8 state.  Tables are padded per-type: maps (T, C, N) int64,
 * srcs/tgts (T, C) uint8, nch (T,) int32 actual change counts.
 * counts (T,) int64 and rec (n_trials * 3) int64 may be NULL.
 * Returns the number of executed trials. */
int64_t repro_run_trials(
    uint8_t *state,
    const int64_t *maps,
    const uint8_t *srcs,
    const uint8_t *tgts,
    const int32_t *nch,
    int64_t c_max,
    int64_t n_sites,
    const int64_t *sites,
    const int64_t *types,
    int64_t n_trials,
    int64_t *counts,
    int64_t *rec)
{
    int64_t n_exec = 0;
    for (int64_t i = 0; i < n_trials; ++i) {
        const int64_t s = sites[i];
        const int64_t t = types[i];
        const int64_t *tm = maps + t * c_max * n_sites;
        const uint8_t *ts = srcs + t * c_max;
        const int32_t nc = nch[t];
        int32_t c = 0;
        for (; c < nc; ++c)
            if (state[tm[c * n_sites + s]] != ts[c])
                break;
        if (c != nc)
            continue;
        const uint8_t *tt = tgts + t * c_max;
        for (c = 0; c < nc; ++c)
            state[tm[c * n_sites + s]] = tt[c];
        if (counts)
            counts[t] += 1;
        if (rec) {
            int64_t *r = rec + 3 * n_exec;
            r[0] = i;
            r[1] = t;
            r[2] = s;
        }
        ++n_exec;
    }
    return n_exec;
}

/* What a bound chunk visit trusts: the state, the packed tables, the
 * type selection table cum (n_edges = its length - 1 interior edges,
 * cum[n_edges] == 1) and counts (T,) int64 or NULL, all checked once
 * when the visit is bound. */
typedef struct {
    uint8_t *state;
    const int64_t *maps;
    const uint8_t *srcs;
    const uint8_t *tgts;
    const int32_t *nch;
    int64_t c_max;
    int64_t n_sites;
    const double *cum;
    int64_t n_edges;
    int64_t *counts;
} repro_visit_t;

#define REPRO_VISIT_BLOCK 1024

/* One chunk visit from uniforms: each u in [0, 1) picks type
 * #{e : u >= cum[e]}, mapped edge by edge over a block of trials into
 * a local buffer (wide enough for any table), then the block runs
 * through repro_run_trials.  Returns the number of executed trials. */
int64_t repro_visit_uniforms(
    const repro_visit_t *h,
    const int64_t *sites,
    const double *u,
    int64_t n_trials)
{
    int64_t types[REPRO_VISIT_BLOCK];
    int64_t n_exec = 0;
    for (int64_t a = 0; a < n_trials; a += REPRO_VISIT_BLOCK) {
        const double *ub = u + a;
        const int64_t n =
            n_trials - a < REPRO_VISIT_BLOCK ? n_trials - a : REPRO_VISIT_BLOCK;
        for (int64_t j = 0; j < n; ++j)
            types[j] = 0;
        for (int64_t e = 0; e < h->n_edges; ++e) {
            const double edge = h->cum[e];
            for (int64_t j = 0; j < n; ++j)
                types[j] += ub[j] >= edge;
        }
        n_exec += repro_run_trials(
            h->state, h->maps, h->srcs, h->tgts, h->nch, h->c_max,
            h->n_sites, sites + a, types, n, h->counts, (int64_t *)0);
    }
    return n_exec;
}
"""


# ----------------------------------------------------------------------
# build + load
# ----------------------------------------------------------------------
_LIB_SENTINEL = object()
_lib_cache: "ctypes.CDLL | None | object" = _LIB_SENTINEL


def _cache_dir() -> str:
    override = os.environ.get(CACHE_ENV)
    if override:
        return override
    uid = f"-{os.getuid()}" if hasattr(os, "getuid") else ""
    return os.path.join(tempfile.gettempdir(), f"repro-cnative{uid}")


def _find_compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


_compiler_id_cache: "str | None" = None


def _compiler_identity() -> str:
    """First line of ``cc --version`` for the compiler we would use.

    Folded into the ``.so`` cache digest so a toolchain upgrade (same
    source, new compiler) rebuilds instead of serving a stale binary.
    A host with no compiler still gets a stable identity, so a cached
    artifact built elsewhere remains loadable.
    """
    global _compiler_id_cache
    if _compiler_id_cache is None:
        cc = _find_compiler()
        ident = "no-cc"
        if cc is not None:
            try:
                proc = subprocess.run(
                    [cc, "--version"], capture_output=True, timeout=10
                )
                first = proc.stdout.decode(errors="replace").splitlines()
                ident = f"{cc} {first[0].strip()}" if first else cc
            except (OSError, subprocess.SubprocessError):
                ident = cc
        _compiler_id_cache = ident
    return _compiler_id_cache


def library_path() -> str:
    """Where the compiled shared object lives (may not exist yet)."""
    payload = _C_SOURCE + "\0" + _compiler_identity()
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return os.path.join(_cache_dir(), f"repro_cnative_{digest}.so")


#: entry point -> (parameter kinds, return kind); the single source of
#: truth for the ctypes declarations.  ``tests/test_backends.py`` checks
#: it against the C prototypes in ``_C_SOURCE``: on LP64 a pointer and
#: an int64 travel in the same register, so a swapped kind would
#: otherwise go unnoticed at run time.
CTYPES_SIGNATURES: "dict[str, tuple[tuple[str, ...], str]]" = {
    "repro_run_trials": (
        ("ptr", "ptr", "ptr", "ptr", "ptr", "i64", "i64", "ptr", "ptr",
         "i64", "ptr", "ptr"),
        "i64",
    ),
    "repro_visit_uniforms": (("ptr", "ptr", "ptr", "i64"), "i64"),
}

_CTYPES_KINDS = {"ptr": ctypes.c_void_p, "i64": ctypes.c_int64}


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    for name, (kinds, ret) in CTYPES_SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = [_CTYPES_KINDS[k] for k in kinds]
        fn.restype = _CTYPES_KINDS[ret]
    return lib


def _build() -> "ctypes.CDLL | None":
    lib_path = library_path()
    if os.path.exists(lib_path):
        try:
            return _declare(ctypes.CDLL(lib_path))
        except OSError:
            pass  # stale/corrupt artifact: rebuild below
    cc = _find_compiler()
    if cc is None:
        return None
    cache = os.path.dirname(lib_path)
    try:
        os.makedirs(cache, exist_ok=True)
        src_path = os.path.join(cache, f"repro_cnative_{os.getpid()}.c")
        tmp_path = lib_path + f".{os.getpid()}.tmp"
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        proc = subprocess.run(
            [cc, "-O3", "-fPIC", "-shared", "-o", tmp_path, src_path],
            capture_output=True,
            timeout=120,
        )
        if proc.returncode != 0:
            return None
        # atomic publish: concurrent builders race benignly
        os.replace(tmp_path, lib_path)
        _evict_stale(cache, os.path.basename(lib_path))
        return _declare(ctypes.CDLL(lib_path))
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        for leftover in (locals().get("src_path"), locals().get("tmp_path")):
            if leftover and os.path.exists(leftover):
                try:
                    os.remove(leftover)
                except OSError:
                    pass


def _evict_stale(cache: str, keep: str) -> None:
    """Drop superseded artifacts (old source or old toolchain) —
    best-effort: a shared cache dir may race, and that is fine."""
    try:
        for entry in os.listdir(cache):
            if (
                entry.startswith("repro_cnative_")
                and entry.endswith(".so")
                and entry != keep
            ):
                try:
                    os.remove(os.path.join(cache, entry))
                except OSError:
                    pass
    except OSError:
        pass


def _lib() -> "ctypes.CDLL | None":
    """The loaded C library, building it on first use (memoised)."""
    global _lib_cache
    if _lib_cache is _LIB_SENTINEL:
        _lib_cache = _build()
    return _lib_cache  # type: ignore[return-value]


def cnative_available() -> bool:
    """Can the C tier run here (compiler or cached artifact present)?"""
    return _lib() is not None


# ----------------------------------------------------------------------
# packed tables
# ----------------------------------------------------------------------

def cnative_tables(
    compiled: CompiledModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Padded per-type ``(maps, srcs, tgts, nch)`` in C layout.

    ``maps`` is ``(T, C, N)`` int64, ``srcs``/``tgts`` are ``(T, C)``
    uint8 and ``nch`` is ``(T,)`` int32 with the *actual* change count
    per type — the C loops execute exactly ``nch[t]`` changes in
    declaration order, so padding never enters the semantics.  Cached
    on the compiled model, keyed like
    :func:`repro.core.kernels.seq_tables`.
    """
    key = _table_key(compiled)
    cached = getattr(compiled, "_cnative_tables", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    n_types = len(compiled.types)
    c_max = max(len(ct.maps) for ct in compiled.types)
    n = compiled.n_sites
    maps = np.zeros((n_types, c_max, n), dtype=np.int64)
    srcs = np.zeros((n_types, c_max), dtype=np.uint8)
    tgts = np.zeros((n_types, c_max), dtype=np.uint8)
    nch = np.zeros(n_types, dtype=np.int32)
    for t, ct in enumerate(compiled.types):
        nch[t] = len(ct.maps)
        for c, m in enumerate(ct.maps):
            maps[t, c] = m
            srcs[t, c] = ct.srcs[c]
            tgts[t, c] = ct.tgts[c]
    tables = (maps, srcs, tgts, nch)
    compiled._cnative_tables = (key, tables)  # type: ignore[attr-defined]
    return tables


# ----------------------------------------------------------------------
# call helpers
# ----------------------------------------------------------------------

def _as_stream(values: "np.ndarray | Sequence[int]") -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values), dtype=np.int64)


def _stream_valid(
    compiled: CompiledModel, sites: np.ndarray, types: np.ndarray
) -> bool:
    """Are all trial indices within table bounds (C trusts them)?"""
    if sites.size == 0:
        return True
    n_types = len(compiled.types)
    return bool(
        (sites >= 0).all()
        and (sites < compiled.n_sites).all()
        and (types >= 0).all()
        and (types < n_types).all()
    )


def _counts_buffer(
    counts: "np.ndarray | None",
) -> "tuple[np.ndarray | None, bool]":
    """A C-compatible int64 accumulator for ``counts``.

    Returns ``(buffer, direct)``: when ``direct`` the caller's array is
    written in place; otherwise the buffer must be added back after the
    call (non-contiguous or non-int64 caller arrays).
    """
    if counts is None:
        return None, True
    if counts.dtype == np.int64 and counts.flags.c_contiguous:
        return counts, True
    return np.zeros(counts.shape, dtype=np.int64), False


def _ptr(arr: "np.ndarray | None") -> "int | None":
    return None if arr is None else arr.ctypes.data


def _run_stream(
    state: np.ndarray,
    compiled: CompiledModel,
    sites: np.ndarray,
    types: np.ndarray,
    counts: "np.ndarray | None",
    record: "list | None",
) -> int:
    """Shared driver: one trial stream against one flat state, in C."""
    lib = _lib()
    assert lib is not None  # callers guard with _c_usable
    maps, srcs, tgts, nch = cnative_tables(compiled)
    cbuf, direct = _counts_buffer(counts)
    rec = None if record is None else np.empty((sites.size, 3), dtype=np.int64)
    n_exec = int(
        lib.repro_run_trials(
            state.ctypes.data,
            maps.ctypes.data,
            srcs.ctypes.data,
            tgts.ctypes.data,
            nch.ctypes.data,
            maps.shape[1],
            compiled.n_sites,
            sites.ctypes.data,
            types.ctypes.data,
            sites.size,
            _ptr(cbuf),
            _ptr(rec),
        )
    )
    if not direct and counts is not None and cbuf is not None:
        counts += cbuf
    if record is not None and rec is not None and n_exec:
        record.extend(
            (int(i), int(t), int(s)) for i, t, s in rec[:n_exec].tolist()
        )
    return n_exec


def _c_usable(state: np.ndarray, *streams: np.ndarray) -> bool:
    """Can the C core act directly on these arrays?"""
    if _lib() is None:
        return False
    if state.dtype != np.uint8 or not state.flags.c_contiguous:
        return False
    return all(s.flags.c_contiguous for s in streams)


# ----------------------------------------------------------------------
# the compiled kernels (each a declared twin of its NumPy reference)
# ----------------------------------------------------------------------

@kernel(writes=("state", "counts", "record"), twin="run_trials_sequential")
def c_run_trials_sequential(
    state: np.ndarray,
    compiled: CompiledModel,
    sites: "np.ndarray | Sequence[int]",
    types: "np.ndarray | Sequence[int]",
    counts: "np.ndarray | None" = None,
    record: "list | None" = None,
) -> int:
    """C twin of :func:`repro.core.kernels.run_trials_sequential`."""
    s_arr = _as_stream(sites)
    t_arr = _as_stream(types)
    if s_arr.size != t_arr.size:
        raise ValueError("sites and types must have equal length")
    if not _c_usable(state, s_arr, t_arr) or not _stream_valid(
        compiled, s_arr, t_arr
    ):
        return _ref.run_trials_sequential(
            state, compiled, sites, types, counts=counts, record=record
        )
    return _run_stream(state, compiled, s_arr, t_arr, counts, record)


@kernel(writes=("state", "counts"), twin="run_trials_batch")
def c_run_trials_batch(
    state: np.ndarray,
    compiled: CompiledModel,
    sites: np.ndarray,
    types: np.ndarray,
    counts: "np.ndarray | None" = None,
) -> int:
    """C twin of :func:`repro.core.kernels.run_trials_batch`.

    On the contract's conflict-free inputs the simultaneous batch
    equals sequential execution in any order, so the C sequential loop
    is bit-identical to the vectorised reference.
    """
    s_arr = _as_stream(sites)
    t_arr = _as_stream(types)
    if np.asarray(sites).shape != np.asarray(types).shape:
        raise ValueError("sites and types must have equal length")
    if s_arr.size == 0:
        return 0
    if not _c_usable(state, s_arr, t_arr) or not _stream_valid(
        compiled, s_arr, t_arr
    ):
        return _ref.run_trials_batch(state, compiled, sites, types, counts)
    return _run_stream(state, compiled, s_arr, t_arr, counts, None)


@kernel(writes=("state", "counts"), twin="run_trials_batch_with_duplicates")
def c_run_trials_batch_with_duplicates(
    state: np.ndarray,
    compiled: CompiledModel,
    sites: np.ndarray,
    types: np.ndarray,
    counts: "np.ndarray | None" = None,
) -> int:
    """C twin of occurrence-batched execution (equals sequential)."""
    s_arr = _as_stream(sites)
    t_arr = _as_stream(types)
    if s_arr.size == 0:
        return 0
    if s_arr.size != t_arr.size or not _c_usable(
        state, s_arr, t_arr
    ) or not _stream_valid(compiled, s_arr, t_arr):
        return _ref.run_trials_batch_with_duplicates(
            state, compiled, sites, types, counts
        )
    return _run_stream(state, compiled, s_arr, t_arr, counts, None)


class _VisitHandle(ctypes.Structure):
    """The C ``repro_visit_t``: the addresses a bound visit trusts."""

    arrays: tuple  # what the addresses point into, kept alive
    _fields_ = [
        ("state", ctypes.c_void_p),
        ("maps", ctypes.c_void_p),
        ("srcs", ctypes.c_void_p),
        ("tgts", ctypes.c_void_p),
        ("nch", ctypes.c_void_p),
        ("c_max", ctypes.c_int64),
        ("n_sites", ctypes.c_int64),
        ("cum", ctypes.c_void_p),
        ("n_edges", ctypes.c_int64),
        ("counts", ctypes.c_void_p),
    ]


#: the visit kernels; on an engine's trial stream each equals strict
#: sequential execution, so all three share ``repro_visit_uniforms``
_VISIT_KERNELS = (
    "run_trials_sequential",
    "run_trials_batch",
    "run_trials_batch_with_duplicates",
)


class CNativeBackend(Backend):
    """Tier-1 compiled backend: C via the system compiler + ctypes."""

    name = "cnative"
    tier = 1

    def available(self) -> bool:
        return cnative_available()

    def bind_visit(
        self,
        state: np.ndarray,
        compiled: CompiledModel,
        counts: np.ndarray,
        kernel: str,
    ) -> Callable[[np.ndarray, np.ndarray], int]:
        """One C call per visit, checked once here.

        The state, the counts and the tables are checked at bind time
        (dtype, shape, contiguity, ``cum[-1] == 1``) and their
        addresses packed into a :class:`_VisitHandle`.  A call then
        passes only the sites pointer, the uniforms pointer and the
        length: the engines' streams are valid by construction (see
        :mod:`repro.core.contracts`).  Anything the C entry cannot take
        gets the default bind instead.
        """
        lib = _lib()
        cum = compiled.type_cum
        n_types = len(compiled.types)
        if not (
            lib is not None
            and kernel in _VISIT_KERNELS
            and np.dtype(np.intp) == np.int64
            and state.dtype == np.uint8
            and state.shape == (compiled.n_sites,)
            and state.flags.c_contiguous
            and counts.dtype == np.int64
            and counts.shape == (n_types,)
            and counts.flags.c_contiguous
            and cum.dtype == np.float64
            and cum.shape == (n_types,)
            and cum.flags.c_contiguous
            and cum[-1] == 1.0
        ):
            return super().bind_visit(state, compiled, counts, kernel)
        maps, srcs, tgts, nch = cnative_tables(compiled)
        handle = _VisitHandle(
            state.ctypes.data, maps.ctypes.data, srcs.ctypes.data,
            tgts.ctypes.data, nch.ctypes.data, maps.shape[1],
            compiled.n_sites, cum.ctypes.data, n_types - 1, counts.ctypes.data,
        )
        handle.arrays = (state, maps, srcs, tgts, nch, cum, counts)
        ref = ctypes.byref(handle)
        call = lib.repro_visit_uniforms

        def visit(sites: np.ndarray, u: np.ndarray) -> int:
            return call(ref, sites.ctypes.data, u.ctypes.data, sites.size)

        return visit

    def kernels(self) -> Mapping[str, Callable]:
        return {
            "run_trials_sequential": c_run_trials_sequential,
            "run_trials_batch": c_run_trials_batch,
            "run_trials_batch_with_duplicates": (
                c_run_trials_batch_with_duplicates
            ),
        }


register_backend(CNativeBackend())
