"""Pluggable compiled-kernel backends (``numpy`` / ``cnative``).

See :mod:`repro.backends.registry` for the selection model and the
bit-identity guarantee, :mod:`repro.backends.cnative` for the compiled
tier, and :mod:`repro.backends.fuzz` for the contract-driven
differential harness that enforces the guarantee.
"""

from .registry import (
    DISPATCH_KERNELS,
    Backend,
    BackendFallbackWarning,
    BoundVisit,
    KernelSet,
    available_backends,
    backend_names,
    check_backend_name,
    current_backend,
    get_backend,
    register_backend,
    resolve_backend,
    use_backend,
)

# importing the compiled tier registers it
from . import cnative as _cnative  # noqa: E402,F401

__all__ = [
    "DISPATCH_KERNELS",
    "Backend",
    "BackendFallbackWarning",
    "BoundVisit",
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
