"""Effect contracts for the state-mutating kernels: the ``@kernel`` decorator.

:func:`kernel` attaches a :class:`KernelContract` to a kernel declaring

* ``writes`` — the parameters (or ``self.*`` attributes) the kernel
  mutates.  :func:`repro.backends.fuzz.compare_backends` gives every
  backend fresh copies of each array or list argument and reports any
  argument outside this set that changed;
* ``shapes`` / ``dtypes`` — symbolic shapes (``{"states": ("R", "N")}``)
  and dtype names the fuzzer allocates its random inputs from
  (:func:`repro.backends.fuzz.argument_grid`);
* ``twin`` — for a compiled re-implementation, the name of the
  reference kernel it must reproduce bit for bit
  (``tests/test_backends.py::TestCoverageMap`` checks every dispatch
  kernel has one).

The decorator returns the function unchanged and registers it in
:data:`KERNEL_REGISTRY`.

Trusted streams
---------------
The ``cnative`` twins of the public kernels bound-check every site and
type before their C code runs, because external callers and
:mod:`repro.backends.fuzz` reach them with arbitrary input.  A chunk
visit bound by :meth:`repro.backends.Backend.bind_visit` checks
nothing per call: the engines' streams are valid by construction, for
two reasons.

* Sites.  :class:`~repro.partition.partition.Partition` checks at
  construction that its chunks hold every lattice site exactly once,
  all within ``[0, N)``.  PNDCA visits whole chunks, L-PNDCA draws its
  sites from a chunk (or, at L = 1, uniformly from ``[0, N)``), and
  :meth:`~repro.parallel.executor.ParallelChunkExecutor.execute_chunk`
  range-checks the sites it splits into slices.
* Types.  :func:`~repro.core.rates.selection_table` pins
  ``cum[-1] == 1``, so a uniform ``u`` in ``[0, 1)`` maps to the type
  ``#{e : u >= cum[e]}``, which is at most ``n_types - 1``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, TypeVar

__all__ = [
    "KernelContract",
    "KERNEL_REGISTRY",
    "kernel",
    "contract_of",
    "registered_kernels",
]

F = TypeVar("F", bound=Callable[..., Any])

#: ``"module.qualname" -> function`` for every decorated kernel.
KERNEL_REGISTRY: dict[str, Callable[..., Any]] = {}


@dataclass(frozen=True)
class KernelContract:
    """Declared writes and dataflow facts of one kernel."""

    writes: tuple[str, ...] = ()
    #: symbolic shapes, e.g. ``{"states": ("R", "N")}``
    shapes: Mapping[str, tuple[Any, ...]] = field(default_factory=dict)
    #: dtype names, e.g. ``{"states": "uint8"}``
    dtypes: Mapping[str, str] = field(default_factory=dict)
    #: name of the reference kernel a compiled twin reproduces
    twin: str | None = None


def kernel(
    *,
    writes: Iterable[str] = (),
    shapes: Mapping[str, tuple[Any, ...]] | None = None,
    dtypes: Mapping[str, str] | None = None,
    twin: str | None = None,
) -> Callable[[F], F]:
    """Attach a :class:`KernelContract` to a kernel function (or method)."""

    def wrap(fn: F) -> F:
        fn.__kernel_contract__ = KernelContract(  # type: ignore[attr-defined]
            writes=tuple(writes),
            shapes=dict(shapes or {}),
            dtypes=dict(dtypes or {}),
            twin=twin,
        )
        KERNEL_REGISTRY[f"{fn.__module__}.{fn.__qualname__}"] = fn
        return fn

    return wrap


def contract_of(fn: Callable[..., Any]) -> KernelContract | None:
    """The contract attached to a function, or None."""
    return getattr(fn, "__kernel_contract__", None)


def registered_kernels(modules: Iterable[str]) -> list[Callable[..., Any]]:
    """The decorated kernels of ``modules``, sorted by qualified name.

    The modules are imported first so their decorators have run.
    """
    wanted = set(modules)
    for mod in wanted:
        importlib.import_module(mod)
    return [
        fn for _, fn in sorted(KERNEL_REGISTRY.items()) if fn.__module__ in wanted
    ]
