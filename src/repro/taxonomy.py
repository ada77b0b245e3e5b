"""A taxonomy of the implemented simulation algorithms.

The paper cites Segers' taxonomy of no fewer than 48 DMC algorithm
variants; this module provides the reproduction's own organised view:
one descriptor per implemented algorithm with its classification
(exact DMC vs approximate CA), parallelism story and parameters, plus
a uniform factory so that experiment scripts can be written
algorithm-agnostically::

    from repro.taxonomy import make_simulator, list_algorithms

    sim = make_simulator("pndca", model, lattice, seed=1,
                         partition=my_partition, strategy="ordered")

Descriptors double as documentation: ``describe_all()`` renders the
comparison table of the method landscape the paper walks through in
sections 3-5.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ca import LPNDCA, NDCA, PNDCA, SynchronousCA, TypePartitionedCA
from .core.lattice import Lattice
from .core.model import Model
from .dmc import FRM, RSM, VSSM
from .dmc.base import SimulatorBase
from .io.report import format_table
from .parallel.domain import DomainDecomposedRSM

__all__ = [
    "AlgorithmInfo",
    "REGISTRY",
    "list_algorithms",
    "make_simulator",
    "describe_all",
]


@dataclass(frozen=True)
class AlgorithmInfo:
    """Metadata describing one simulation algorithm."""

    key: str
    cls: type
    family: str          # "DMC" | "CA"
    exact: bool          # simulates the Master Equation exactly
    parallel: str        # the parallelism story, one phrase
    paper_section: str   # where the paper treats it
    notes: str

    def make(self, model: Model, lattice: Lattice, **kwargs) -> SimulatorBase:
        """Construct this algorithm's simulator (kwargs passed through)."""
        return self.cls(model, lattice, **kwargs)


REGISTRY: dict[str, AlgorithmInfo] = {
    info.key: info
    for info in [
        AlgorithmInfo(
            key="rsm",
            cls=RSM,
            family="DMC",
            exact=True,
            parallel="none (sequential trials)",
            paper_section="3",
            notes="Random Selection Method; the paper's reference algorithm",
        ),
        AlgorithmInfo(
            key="vssm",
            cls=VSSM,
            family="DMC",
            exact=True,
            parallel="none",
            paper_section="3 (taxonomy)",
            notes="Variable Step Size / Gillespie direct; rejection-free",
        ),
        AlgorithmInfo(
            key="frm",
            cls=FRM,
            family="DMC",
            exact=True,
            parallel="none",
            paper_section="3 (taxonomy)",
            notes="First Reaction Method; heap of tentative times",
        ),
        AlgorithmInfo(
            key="ndca",
            cls=NDCA,
            family="CA",
            exact=False,
            parallel="conceptually all sites; conflicts force sequential sweep",
            paper_section="4",
            notes="one rate-weighted trial per site per step; biased for "
            "ki/K ~ 1 and transport-sensitive models",
        ),
        AlgorithmInfo(
            key="sync-ca",
            cls=SynchronousCA,
            family="CA",
            exact=False,
            parallel="fully synchronous, but ill-defined under conflicts",
            paper_section="4 (Fig. 2)",
            notes="naive synchronous update with conflict detection; "
            "demonstrates why partitions are needed",
        ),
        AlgorithmInfo(
            key="pndca",
            cls=PNDCA,
            family="CA",
            exact=False,
            parallel="all sites of a conflict-free chunk simultaneously",
            paper_section="5",
            notes="the paper's central algorithm; 4 chunk-selection strategies",
        ),
        AlgorithmInfo(
            key="lpndca",
            cls=LPNDCA,
            family="CA",
            exact=False,
            parallel="chunk-simultaneous; L interpolates to exact RSM",
            paper_section="5",
            notes="general parameterised family; m=1/L=N and m=N/L=1 are RSM",
        ),
        AlgorithmInfo(
            key="typepart",
            cls=TypePartitionedCA,
            family="CA",
            exact=False,
            parallel="half the lattice per sweep (2-chunk checkerboard)",
            paper_section="5 (Table II, Fig. 6)",
            notes="partitions Omega x T; Kortluke-style mass application "
            "of one oriented type",
        ),
        AlgorithmInfo(
            key="dd-rsm",
            cls=DomainDecomposedRSM,
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
