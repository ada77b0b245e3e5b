"""Shared machinery for the oscillation experiments (Figs. 8-10).

All three figures compare coverage curves of the Pt(100)
reconstruction model between RSM and L-PNDCA variants.  This module
provides the common runner (model, initial state, observers, CO/O
series extraction) and the default experiment scale.

Scale note: the paper uses 100x100 lattices and horizons of 200-300
time units; the default here is 32x32 over ~60 time units (<= a
minute per curve on one CPU core), which shows 4-5 oscillation
periods — enough for every qualitative comparison.  All drivers take
``side``/``until`` parameters to run at paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..analysis.compare import curve_rmse, phase_shift
from ..analysis.oscillations import OscillationSummary, analyze_oscillations
from ..core.lattice import Lattice
from ..core.model import Model
from ..dmc.base import CoverageObserver, SimulatorBase
from ..models.pt100 import hex_surface, pt100_model

__all__ = ["Curve", "run_curve", "make_pt100", "DEFAULT_SIDE", "DEFAULT_UNTIL"]

DEFAULT_SIDE = 40
DEFAULT_UNTIL = 70.0
SAMPLE_DT = 0.25


def make_pt100() -> Model:
    """The oscillatory Pt(100) model with the package's tuned rates."""
    return pt100_model()


@dataclass
class Curve:
    """One simulated coverage curve plus its oscillation summary."""

    label: str
    times: np.ndarray
    co: np.ndarray     # total CO coverage (hex + square phase)
    o: np.ndarray      # O coverage
    oscillation: OscillationSummary
    n_trials: int
    wall_time: float

    def rmse_to(self, other: "Curve") -> float:
        """RMS deviation of the CO curves."""
        return curve_rmse(other.times, other.co, self.times, self.co)

    def phase_shift_to(self, other: "Curve") -> float:
        """Time lag of this CO curve relative to another."""
        return phase_shift(other.times, other.co, self.times, self.co)


def run_curve(
    label: str,
    factory: Callable[[Model, Lattice], SimulatorBase],
    side: int = DEFAULT_SIDE,
    until: float = DEFAULT_UNTIL,
    sample_dt: float = SAMPLE_DT,
) -> Curve:
    """Run one simulator on the Pt(100) workload and summarise its curve.

    ``factory(model, lattice)`` must build a simulator that already
    carries a ``CoverageObserver``-compatible observer — to keep the
    grids identical the factory should use :func:`make_observer`.
    """
    model = make_pt100()
    lattice = Lattice((side, side))
    sim = factory(model, lattice)
    if not sim.observers:
        sim.observers.append(make_observer(sample_dt))
    result = sim.run(until=until)
    co = result.coverage["hC"] + result.coverage["sC"]
    o = result.coverage["sO"]
    return Curve(
        label=label,
        times=result.times,
        co=co,
        o=o,
        oscillation=analyze_oscillations(result.times, co),
        n_trials=result.n_trials,
        wall_time=result.wall_time,
    )


def make_observer(sample_dt: float = SAMPLE_DT) -> CoverageObserver:
    """The standard coverage observer of the oscillation experiments."""
    return CoverageObserver(sample_dt, species=("hC", "sC", "sO"))


# ----------------------------------------------------------------------
# standard simulator factories
# ----------------------------------------------------------------------

def rsm_factory(seed: int, sample_dt: float = SAMPLE_DT):
    """RSM on a clean hex surface (the figures' reference curve)."""
    from ..dmc.rsm import RSM

    def build(model: Model, lattice: Lattice) -> SimulatorBase:
        return RSM(
            model, lattice, seed=seed, initial=hex_surface(lattice, model),
            observers=[make_observer(sample_dt)],
        )

    return build


def lpndca_factory(
    seed: int,
    partition: str = "five",
    L: int | str = 1,
    chunk_selection: str = "size-proportional",
    sample_dt: float = SAMPLE_DT,
):
    """L-PNDCA on a clean hex surface.

    ``partition``: ``"five"`` (Fig. 4), ``"single"`` (m=1) or
    ``"singletons"`` (m=N).
    """
    from ..ca.lpndca import LPNDCA
    from ..partition.partition import Partition
    from ..partition.tilings import five_chunk_partition

    def build(model: Model, lattice: Lattice) -> SimulatorBase:
        if partition == "five":
            p = five_chunk_partition(lattice)
        elif partition == "single":
            p = Partition.single_chunk(lattice)
        elif partition == "singletons":
            p = Partition.singletons(lattice)
        else:
            raise ValueError(f"unknown partition kind {partition!r}")
        return LPNDCA(
            model, lattice, seed=seed, initial=hex_surface(lattice, model),
            partition=p, L=L, chunk_selection=chunk_selection,
            require_conflict_free=partition != "single",
            observers=[make_observer(sample_dt)],
        )

    return build
