"""The compiled-kernel backend registry: per-run kernel selection.

Every simulation engine ultimately mutates state through the four
public execution kernels of :mod:`repro.core.kernels`
(:data:`DISPATCH_KERNELS`).  Those kernels are *deterministic state
transforms* — all randomness is drawn by the engines — so a compiled
re-implementation can (and must) be **bit-identical**: exact array
equality at every call, not statistical agreement.  That property is
what makes a backend swappable per run without touching the engines'
RNG accounting, checkpoints or results, and it is asserted by the
differential suite in ``tests/test_backends.py``.

Backends
--------
``numpy``
    The reference implementation — the contract-decorated kernels of
    :mod:`repro.core.kernels` themselves.  Always available.
``cnative``
    C translations of the trial-execution kernels, compiled once per
    source digest with the system C compiler and loaded through
    ``ctypes`` (:mod:`repro.backends.cnative`).  Available wherever a
    C compiler is (build artifacts are cached on disk, so the
    compile cost is paid once per machine, not per process).

Selection order
---------------
:func:`resolve_backend` accepts a backend name, a :class:`Backend`
instance, or ``None``:

* ``None`` — the ambient backend installed by :func:`use_backend`;
  outside any such block, the default, which resolves like ``"auto"``;
* ``"auto"`` — the highest-tier available backend
  (``cnative`` > ``numpy``);
* a name — that backend if available, else ``numpy`` with a
  ``BackendFallbackWarning``.  A name that is neither registered nor
  ``"auto"`` is a ``ValueError`` (:func:`check_backend_name`), which
  the CLI commands turn into exit status 2 before doing any work.

Because the tiers are bit-identical, the default can be the fastest
one without moving a digest.  A host where ``cnative`` cannot build
(no C compiler, no cached library) runs ``numpy`` and prints one
``repro: backend notice`` line on stderr per process; an explicit
``cnative`` request there keeps the ``BackendFallbackWarning``.

The backend is an *execution detail*: it never enters the engine
fingerprint, so checkpoints written under one backend restore into any
other (asserted in the differential suite).
"""

from __future__ import annotations

import sys
import warnings
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping

__all__ = [
    "DISPATCH_KERNELS",
    "Backend",
    "BackendFallbackWarning",
    "KernelSet",
    "available_backends",
    "backend_names",
    "check_backend_name",
    "current_backend",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "use_backend",
]

#: the dispatchable kernels — the state-mutation hot paths every
#: engine funnels through (see repro.core.kernels)
DISPATCH_KERNELS: tuple[str, ...] = (
    "run_trials_sequential",
    "run_trials_batch",
    "run_trials_batch_with_duplicates",
    "execute_type_everywhere",
)


class BackendFallbackWarning(UserWarning):
    """A requested backend is unavailable; a fallback was selected."""


class KernelSet:
    """The resolved kernel table of one backend.

    One attribute per :data:`DISPATCH_KERNELS` entry; kernels the
    backend does not override fall back to the NumPy reference, so a
    partial backend is always safe to run.
    """

    __slots__ = DISPATCH_KERNELS + ("backend_name",)

    def __init__(self, backend_name: str, overrides: Mapping[str, Callable]):
        from ..core import kernels as _reference

        unknown = set(overrides) - set(DISPATCH_KERNELS)
        if unknown:
            raise ValueError(
                f"backend {backend_name!r} overrides unknown kernels "
                f"{sorted(unknown)}; dispatchable: {list(DISPATCH_KERNELS)}"
            )
        self.backend_name = backend_name
        for name in DISPATCH_KERNELS:
            setattr(self, name, overrides.get(name, getattr(_reference, name)))

    def __repr__(self) -> str:
        return f"KernelSet({self.backend_name!r})"


class Backend:
    """One kernel implementation tier.

    Subclasses set :attr:`name` and :attr:`tier` (selection priority
    for ``"auto"``; higher wins), and override :meth:`available` and
    :meth:`kernels`.
    """

    name: str = "?"
    tier: int = 0

    def available(self) -> bool:
        """Can this backend actually execute on this host?"""
        return True

    def kernels(self) -> Mapping[str, Callable]:
        """Kernel-name -> implementation overrides (empty = reference)."""
        return {}

    def kernel_set(self) -> KernelSet:
        """The resolved kernel table (built once, then cached)."""
        cached = getattr(self, "_kernel_set", None)
        if cached is None:
            cached = KernelSet(self.name, self.kernels())
            self._kernel_set = cached
        return cached

    def bind_visit(self, state, compiled, counts, kernel: str) -> Callable:
        """A chunk visit bound to one state array, model and counts.

        Returns ``visit(sites, u)``: it maps the uniforms ``u`` to
        reaction types with :func:`~repro.core.rng.types_from_uniforms`,
        runs the :class:`KernelSet` entry named ``kernel`` over
        ``(sites, types)`` against ``state``, adds the executed counts
        per type to ``counts`` and returns how many trials executed.
        Backends may override it with a faster call that trusts the
        engines' streams (see :mod:`repro.core.contracts`).
        """
        from ..core.rng import types_from_uniforms

        run = getattr(self.kernel_set(), kernel)
        cum = compiled.type_cum

        def visit(sites, u) -> int:
            types = types_from_uniforms(cum, u)
            return run(state, compiled, sites, types, counts=counts)

        return visit

    def __repr__(self) -> str:
        return f"<Backend {self.name} tier={self.tier}>"


class NumpyBackend(Backend):
    """The reference tier: the contract-decorated kernels themselves."""

    name = "numpy"
    tier = 0


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Register (or replace) a backend under its name; returns it."""
    if not backend.name or backend.name in ("auto",):
        raise ValueError(f"invalid backend name {backend.name!r}")
    _REGISTRY[backend.name] = backend
    return backend


def check_backend_name(name: "str | None") -> None:
    """Fail closed on a backend name nothing can resolve.

    ``None`` (the ambient selection), ``"auto"`` and every registered
    name pass; anything else raises a one-line ``ValueError`` naming
    the known choices.  The CLI commands and the scenario loader call
    this before doing any work.
    """
    if name is not None and name != "auto" and name not in _REGISTRY:
        raise ValueError(
            f"unknown backend {name!r}; known: {sorted([*_REGISTRY, 'auto'])}"
        )


def get_backend(name: str) -> Backend:
    """The registered backend of that name (KeyError-free lookup)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; known: {backend_names()}"
        ) from None


def backend_names() -> list[str]:
    """All registered backend names, sorted."""
    return sorted(_REGISTRY)


def available_backends() -> list[str]:
    """Names of the backends that can execute on this host, by tier."""
    usable = [b for b in _REGISTRY.values() if b.available()]
    return [b.name for b in sorted(usable, key=lambda b: (-b.tier, b.name))]


def resolve_backend(
    spec: "str | Backend | None" = None, *, warn: bool = True
) -> Backend:
    """Resolve a backend request to an *available* backend.

    See the module docstring for the selection order.  ``warn=False``
    silences the fallback warning (worker processes re-resolving the
    master's choice should not repeat it).
    """
    if isinstance(spec, Backend):
        return spec
    if spec is None:
        return current_backend()
    if spec == "auto":
        names = available_backends()
        return _REGISTRY[names[0]] if names else _REGISTRY["numpy"]
    backend = get_backend(spec)
    if backend.available():
        return backend
    if warn:
        warnings.warn(
            f"backend {spec!r} is not available on this host; "
            f"falling back to 'numpy'",
            BackendFallbackWarning,
            stacklevel=2,
        )
    return _REGISTRY["numpy"]


# ----------------------------------------------------------------------
# ambient backend (mirrors repro.obs.metrics.use_metrics)
# ----------------------------------------------------------------------
_AMBIENT: list[Backend] = []
_DEFAULT: list[Backend] = []


def _default_backend() -> Backend:
    """The best available backend, resolved once per process.

    Resolves like ``"auto"``.  When a higher tier is registered but
    cannot run here, it says so once on stderr and returns ``numpy``.
    """
    if not _DEFAULT:
        best = resolve_backend("auto")
        missing = [
            b.name for b in _REGISTRY.values() if b.tier > best.tier
        ]
        if missing:
            print(
                f"repro: backend notice: {', '.join(sorted(missing))} "
                f"unavailable on this host (no C compiler and no cached "
                f"build); running on {best.name!r}",
                file=sys.stderr,
            )
        _DEFAULT.append(best)
    return _DEFAULT[0]


def current_backend() -> Backend:
    """The innermost :func:`use_backend` backend, else the best available
    one (resolved like ``"auto"``, once per process)."""
    return _AMBIENT[-1] if _AMBIENT else _default_backend()


@contextmanager
def use_backend(spec: "str | Backend | None") -> Iterator[Backend]:
    """Install a backend as the ambient default within a ``with`` block.

    Engines constructed inside the block (without an explicit
    ``backend=`` argument) pick it up — this is how the CLI's
    ``--backend`` flag reaches the experiment drivers without
    threading a parameter through every registry function.
    """
    backend = resolve_backend(spec)
    _AMBIENT.append(backend)
    try:
        yield backend
    finally:
        _AMBIENT.pop()


register_backend(NumpyBackend())
