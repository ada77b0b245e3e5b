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

The stencil
-----------
Reaction types are translation invariant (paper, section 2), so the C
core reads no neighbour table: it computes each touched site from the
anchor's row and column and a per-type stencil of change offsets
(``repro_visit_t``, packed once per compiled model by :func:`_stencil`).
A ``cnative`` run thus builds none of the length-``N`` maps the NumPy
kernels gather through (``CompiledType.maps``).

All randomness is drawn by the engines *before* these kernels run, so
the backend cannot perturb RNG streams (draw-parity is asserted
through ``CountingGenerator`` in the differential suite).

Safety
------
The wrappers validate everything the C code would otherwise trust:
dtype/contiguity of the state and stream arrays, equal stream lengths,
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
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core import kernels as _ref
from ..core.compiled import CompiledModel
from ..core.contracts import kernel
from ..core.kernels import _table_key
from .registry import Backend, BoundVisit, register_backend

__all__ = [
    "CNativeBackend",
    "c_run_trials_batch",
    "c_run_trials_batch_with_duplicates",
    "c_run_trials_sequential",
    "cnative_available",
    "library_path",
]

#: cache-dir override for the compiled shared object
CACHE_ENV = "REPRO_CNATIVE_CACHE"

_C_SOURCE = r"""
#include <stdint.h>

/* What both entry points read, checked once by the caller: the flat
 * uint8 state, the per-type stencil, the type selection table and the
 * counts.  The stencil holds, for type t and change c at t * c_max + c,
 * the change's row and column offsets reduced into [0, rows) and
 * [0, cols) (a 1-d lattice is 1 x N), with srcs/tgts (T, c_max) uint8
 * and nch (T,) int32 actual change counts.  cum (n_edges = its length
 * - 1 interior edges, cum[n_edges] == 1) is read only by
 * repro_visit_uniforms.  counts (T,) int64 may be NULL. */
typedef struct {
    uint8_t *state;
    const int64_t *drow;
    const int64_t *dcol;
    const uint8_t *srcs;
    const uint8_t *tgts;
    const int32_t *nch;
    int64_t c_max;
    int64_t rows;
    int64_t cols;
    const double *cum;
    int64_t n_edges;
    int64_t *counts;
} repro_visit_t;

/* The flat index of the site at (row + dr, col + dc) for an anchor
 * inside the lattice and offsets reduced into [0, rows) x [0, cols):
 * one conditional subtraction per axis wraps it. */
static inline int64_t site_at(
    int64_t row, int64_t col, int64_t dr, int64_t dc,
    int64_t rows, int64_t cols)
{
    int64_t rr = row + dr;
    if (rr >= rows)
        rr -= rows;
    int64_t cc = col + dc;
    if (cc >= cols)
        cc -= cols;
    const int64_t at = rr * cols + cc;
    return at;
}

/* Execute a trial stream strictly one trial at a time against the
 * handle's state.  rec (n_trials * 3) int64 may be NULL.  Returns the
 * number of executed trials. */
int64_t repro_run_trials(
    const repro_visit_t *h,
    const int64_t *sites,
    const int64_t *types,
    int64_t n_trials,
    int64_t *rec)
{
    uint8_t *state = h->state;
    const int64_t *drow = h->drow;
    const int64_t *dcol = h->dcol;
    const int64_t c_max = h->c_max;
    const int64_t rows = h->rows;
    const int64_t cols = h->cols;
    int64_t *counts = h->counts;
    const double inv_cols = 1.0 / (double)cols;
    int64_t n_exec = 0;
    for (int64_t i = 0; i < n_trials; ++i) {
        const int64_t s = sites[i];
        const int64_t t = types[i];
        /* the anchor's row from the rounded quotient, off by at most
         * one either way, then its column */
        int64_t row = (int64_t)((double)s * inv_cols);
        int64_t col = s - row * cols;
        if (col < 0) {
            --row;
            col += cols;
        } else if (col >= cols) {
            ++row;
            col -= cols;
        }
        const int64_t *tr = drow + t * c_max;
        const int64_t *tc = dcol + t * c_max;
        const uint8_t *ts = h->srcs + t * c_max;
        const int32_t nc = h->nch[t];
        int32_t c = 0;
        for (; c < nc; ++c)
            if (state[site_at(row, col, tr[c], tc[c], rows, cols)] != ts[c])
                break;
        if (c != nc)
            continue;
        const uint8_t *tt = h->tgts + t * c_max;
        for (c = 0; c < nc; ++c)
            state[site_at(row, col, tr[c], tc[c], rows, cols)] = tt[c];
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
        n_exec += repro_run_trials(h, sites + a, types, n, (int64_t *)0);
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
    "repro_run_trials": (("ptr", "ptr", "ptr", "i64", "ptr"), "i64"),
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
# the per-type stencil
# ----------------------------------------------------------------------

def _rows_cols(compiled: CompiledModel) -> tuple[int, int]:
    """The lattice as ``rows x cols`` (a 1-d lattice is ``1 x N``)."""
    shape = compiled.lattice.shape
    return (1, shape[0]) if len(shape) == 1 else shape


def _stencil(
    compiled: CompiledModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-type ``(drow, dcol, srcs, tgts, nch)`` in C layout.

    ``drow``/``dcol`` are ``(T, C)`` int64 change offsets reduced into
    ``[0, rows)`` and ``[0, cols)``, ``srcs``/``tgts`` ``(T, C)`` uint8
    and ``nch`` ``(T,)`` int32 with the *actual* change count per type
    — the C loops execute exactly ``nch[t]`` changes in declaration
    order, so padding never enters the semantics.  Packed on first use
    and cached on the compiled model, keyed like
    :func:`repro.core.kernels.seq_tables`.
    """
    key = _table_key(compiled)
    cached = getattr(compiled, "_cnative_stencil", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    rows, cols = _rows_cols(compiled)
    n_types = len(compiled.types)
    c_max = max(len(ct.offsets) for ct in compiled.types)
    drow = np.zeros((n_types, c_max), dtype=np.int64)
    dcol = np.zeros((n_types, c_max), dtype=np.int64)
    srcs = np.zeros((n_types, c_max), dtype=np.uint8)
    tgts = np.zeros((n_types, c_max), dtype=np.uint8)
    nch = np.zeros(n_types, dtype=np.int32)
    for t, ct in enumerate(compiled.types):
        nch[t] = len(ct.offsets)
        for c, off in enumerate(ct.offsets):
            dr, dc = (0, off[0]) if len(off) == 1 else off
            drow[t, c] = dr % rows
            dcol[t, c] = dc % cols
            srcs[t, c] = ct.srcs[c]
            tgts[t, c] = ct.tgts[c]
    stencil = (drow, dcol, srcs, tgts, nch)
    compiled._cnative_stencil = (key, stencil)  # type: ignore[attr-defined]
    return stencil


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
    cbuf, direct = _counts_buffer(counts)
    handle = _handle(state, compiled, cbuf)
    rec = None if record is None else np.empty((sites.size, 3), dtype=np.int64)
    n_exec = int(
        lib.repro_run_trials(
            ctypes.byref(handle),
            sites.ctypes.data,
            types.ctypes.data,
            sites.size,
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
    """The C ``repro_visit_t``: the addresses both C entries trust."""

    arrays: tuple  # what the addresses point into, kept alive
    _fields_ = [
        ("state", ctypes.c_void_p),
        ("drow", ctypes.c_void_p),
        ("dcol", ctypes.c_void_p),
        ("srcs", ctypes.c_void_p),
        ("tgts", ctypes.c_void_p),
        ("nch", ctypes.c_void_p),
        ("c_max", ctypes.c_int64),
        ("rows", ctypes.c_int64),
        ("cols", ctypes.c_int64),
        ("cum", ctypes.c_void_p),
        ("n_edges", ctypes.c_int64),
        ("counts", ctypes.c_void_p),
    ]


def _handle(
    state: np.ndarray,
    compiled: CompiledModel,
    counts: "np.ndarray | None",
    cum: "np.ndarray | None" = None,
) -> _VisitHandle:
    """Pack the state, the stencil, ``cum`` and the counts into one
    :class:`_VisitHandle` (``cum`` only for ``repro_visit_uniforms``)."""
    drow, dcol, srcs, tgts, nch = _stencil(compiled)
    rows, cols = _rows_cols(compiled)
    handle = _VisitHandle(
        state.ctypes.data, drow.ctypes.data, dcol.ctypes.data,
        srcs.ctypes.data, tgts.ctypes.data, nch.ctypes.data, drow.shape[1],
        rows, cols, _ptr(cum), 0 if cum is None else cum.size - 1,
        _ptr(counts),
    )
    handle.arrays = (state, drow, dcol, srcs, tgts, nch, cum, counts)
    return handle


class _CVisit:
    """``cnative``'s bound visit: one ``repro_visit_uniforms`` call.

    The handle's and the uniforms buffer's addresses are taken once, at
    bind time; :meth:`over` takes a fixed site array's address once
    too, so a visit of a partition's chunk passes only ints.
    """

    __slots__ = ("_call", "_ref", "_uniforms", "_u")

    def __init__(self, call, handle: _VisitHandle, uniforms: np.ndarray):
        self._call = call
        self._ref = ctypes.byref(handle)  # holds the handle alive
        self._uniforms = uniforms
        self._u = uniforms.ctypes.data

    def __call__(self, sites: np.ndarray, lo: int = 0) -> int:
        return self._call(self._ref, sites.ctypes.data, self._u + 8 * lo, sites.size)

    def over(self, sites: np.ndarray) -> Callable[[], int]:
        fixed = partial(self._call, self._ref, sites.ctypes.data, self._u, sites.size)
        fixed.sites = sites  # type: ignore[attr-defined]  # kept alive
        return fixed


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
        uniforms: np.ndarray,
    ) -> "_CVisit | BoundVisit":
        """One C call per visit, checked once here.

        The state, the counts, ``cum`` and the uniforms buffer are
        checked at bind time (dtype, shape, contiguity,
        ``cum[-1] == 1``), the model's stencil is packed (once per
        compiled model), and their addresses go into a
        :class:`_VisitHandle`.  A call then passes only the sites
        address, the uniforms address and the length: the engines'
        streams are valid by construction (see
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
            and uniforms.dtype == np.float64
            and uniforms.ndim == 1
            and uniforms.flags.c_contiguous
        ):
            return super().bind_visit(state, compiled, counts, kernel, uniforms)
        handle = _handle(state, compiled, counts, cum)
        return _CVisit(lib.repro_visit_uniforms, handle, uniforms)

    def kernels(self) -> Mapping[str, Callable]:
        return {
            "run_trials_sequential": c_run_trials_sequential,
            "run_trials_batch": c_run_trials_batch,
            "run_trials_batch_with_duplicates": (
                c_run_trials_batch_with_duplicates
            ),
        }


register_backend(CNativeBackend())
