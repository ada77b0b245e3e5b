"""Dynamic Monte Carlo simulators and the exact Master Equation."""

from .base import (
    CoverageObserver,
    Observer,
    SimulationResult,
    SimulatorBase,
    SnapshotObserver,
)
from .rsm import RSM

#: resolved on first access (PEP 562): a scenario run builds one
#: engine, so `repro run zgb` loads none of these
_LAZY = {"FRM": ".frm", "VSSM": ".vssm", "MasterEquation": ".master_equation"}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(_LAZY[name], __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "SimulatorBase",
    "SimulationResult",
    "Observer",
    "CoverageObserver",
    "SnapshotObserver",
    "RSM",
    "VSSM",
    "FRM",
    "MasterEquation",
]
