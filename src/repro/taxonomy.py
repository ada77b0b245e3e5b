"""The engine table: one row per implemented simulation algorithm.

The paper cites Segers' taxonomy of no fewer than 48 DMC algorithm
variants; this module is the reproduction's own organised view and the
one declaration of every engine name.  Each row gives the algorithm's
classification (exact DMC vs approximate CA), its parallelism story,
whether it takes a partition, its options with their allowed values,
and whether a scenario may build it.  :func:`make_simulator` is the
one factory over the table, and the scenario loader checks an
``[engine]`` table against the same rows::

    from repro.taxonomy import make_simulator, list_algorithms

    sim = make_simulator("pndca", model, lattice, seed=1,
                         partition=my_partition, strategy="ordered")

Rows name their class as a ``"module:Class"`` string imported on first
use, so reading the table loads no engine.  ``describe_all()`` renders
the comparison table of the method landscape the paper walks through
in sections 3-5.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from numbers import Integral
from typing import TYPE_CHECKING, Any, Callable, Mapping

if TYPE_CHECKING:
    from .core.lattice import Lattice
    from .core.model import Model
    from .dmc.base import SimulatorBase

__all__ = [
    "AlgorithmInfo",
    "CHUNK_SELECTIONS",
    "REGISTRY",
    "STRATEGIES",
    "check_L",
    "check_chunk_selection",
    "check_strategy",
    "describe_all",
    "list_algorithms",
    "load",
    "make_simulator",
    "scenario_kinds",
]

#: PNDCA's chunk-selection strategies (paper section 5, options 1-4)
STRATEGIES = ("ordered", "random-order", "random", "weighted")

#: L-PNDCA's chunk selections
CHUNK_SELECTIONS = ("size-proportional", "uniform", "random-order", "ordered")


def load(target: str) -> Any:
    """The object a ``"module:name"`` string names, imported on first use."""
    module, _, name = target.partition(":")
    return getattr(importlib.import_module(module), name)


def check_strategy(strategy: Any) -> None:
    """Refuse a PNDCA strategy outside :data:`STRATEGIES`."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


def check_chunk_selection(selection: Any) -> None:
    """Refuse an L-PNDCA chunk selection outside :data:`CHUNK_SELECTIONS`."""
    if selection not in CHUNK_SELECTIONS:
        raise ValueError(
            f"unknown chunk selection {selection!r}; choose from {CHUNK_SELECTIONS}"
        )


def check_L(L: Any) -> None:
    """Refuse an L-PNDCA ``L`` that is neither a positive integer nor
    ``"chunk"`` (``L = |Pi|``)."""
    if L == "chunk" or (
        isinstance(L, Integral) and not isinstance(L, bool) and L >= 1
    ):
        return
    raise ValueError(f"L must be a positive integer or 'chunk', got {L!r}")


@dataclass(frozen=True)
class AlgorithmInfo:
    """One engine: its class, classification and construction rules."""

    key: str
    target: str          # "module:Class", imported on first use
    family: str          # "DMC" | "CA"
    exact: bool          # simulates the Master Equation exactly
    parallel: str        # the parallelism story, one phrase
    paper_section: str   # where the paper treats it
    notes: str
    #: the constructor needs a conflict-free ``partition``
    partitioned: bool = False
    #: option name -> check raising ``ValueError`` naming the choices
    options: Mapping[str, Callable[[Any], None]] = field(default_factory=dict)
    #: a scenario ``[engine] kind`` may name it
    scenario: bool = False

    @property
    def cls(self) -> type:
        """The simulator class (imports its module on first use)."""
        return load(self.target)

    def make(self, model: Model, lattice: Lattice, **kwargs) -> SimulatorBase:
        """Construct this algorithm's simulator (kwargs passed through)."""
        return self.cls(model, lattice, **kwargs)


REGISTRY: dict[str, AlgorithmInfo] = {
    info.key: info
    for info in [
        AlgorithmInfo(
            key="rsm",
            target="repro.dmc.rsm:RSM",
            family="DMC",
            exact=True,
            parallel="none (sequential trials)",
            paper_section="3",
            notes="Random Selection Method; the paper's reference algorithm",
            scenario=True,
        ),
        AlgorithmInfo(
            key="vssm",
            target="repro.dmc.vssm:VSSM",
            family="DMC",
            exact=True,
            parallel="none",
            paper_section="3 (taxonomy)",
            notes="Variable Step Size / Gillespie direct; rejection-free",
        ),
        AlgorithmInfo(
            key="frm",
            target="repro.dmc.frm:FRM",
            family="DMC",
            exact=True,
            parallel="none",
            paper_section="3 (taxonomy)",
            notes="First Reaction Method; heap of tentative times",
        ),
        AlgorithmInfo(
            key="ndca",
            target="repro.ca.ndca:NDCA",
            family="CA",
            exact=False,
            parallel="conceptually all sites; conflicts force sequential sweep",
            paper_section="4",
            notes="one rate-weighted trial per site per step; biased for "
            "ki/K ~ 1 and transport-sensitive models",
            scenario=True,
        ),
        AlgorithmInfo(
            key="sync-ca",
            target="repro.ca.sync:SynchronousCA",
            family="CA",
            exact=False,
            parallel="fully synchronous, but ill-defined under conflicts",
            paper_section="4 (Fig. 2)",
            notes="naive synchronous update with conflict detection; "
            "demonstrates why partitions are needed",
        ),
        AlgorithmInfo(
            key="pndca",
            target="repro.ca.pndca:PNDCA",
            family="CA",
            exact=False,
            parallel="all sites of a conflict-free chunk simultaneously",
            paper_section="5",
            notes="the paper's central algorithm; 4 chunk-selection strategies",
            partitioned=True,
            options={"strategy": check_strategy},
            scenario=True,
        ),
        AlgorithmInfo(
            key="lpndca",
            target="repro.ca.lpndca:LPNDCA",
            family="CA",
            exact=False,
            parallel="chunk-simultaneous; L interpolates to exact RSM",
            paper_section="5",
            notes="general parameterised family; m=1/L=N and m=N/L=1 are RSM",
            partitioned=True,
            options={"L": check_L, "chunk_selection": check_chunk_selection},
            scenario=True,
        ),
        AlgorithmInfo(
            key="typepart",
            target="repro.ca.typepart:TypePartitionedCA",
            family="CA",
            exact=False,
            parallel="half the lattice per sweep (2-chunk checkerboard)",
            paper_section="5 (Table II, Fig. 6)",
            notes="partitions Omega x T; Kortluke-style mass application "
            "of one oriented type",
            scenario=True,
        ),
        AlgorithmInfo(
            key="dd-rsm",
            target="repro.parallel.domain:DomainDecomposedRSM",
            family="DMC",
            exact=False,
            parallel="contiguous strips with halo exchange (Segers)",
            paper_section="3 (prior work)",
            notes="the comparison point: boundary communication scales "
            "with strip perimeter",
        ),
    ]
}


def list_algorithms() -> list[str]:
    """The registered algorithm keys."""
    return sorted(REGISTRY)


def scenario_kinds() -> list[str]:
    """The keys a scenario's ``[engine] kind`` may name, sorted."""
    return sorted(k for k, info in REGISTRY.items() if info.scenario)


def make_simulator(
    key: str, model: Model, lattice: Lattice, **kwargs
) -> SimulatorBase:
    """Construct a simulator by taxonomy key (kwargs passed through)."""
    try:
        info = REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {key!r}; known: {list_algorithms()}"
        ) from None
    return info.make(model, lattice, **kwargs)


def describe_all() -> str:
    """Render the algorithm landscape as a comparison table."""
    from .io.report import format_table

    rows = [
        (
            info.key,
            info.family,
            "exact" if info.exact else "approx",
            info.parallel,
            info.paper_section,
        )
        for info in REGISTRY.values()
    ]
    return format_table(
        ["key", "family", "ME", "parallelism", "paper"], rows
    )
