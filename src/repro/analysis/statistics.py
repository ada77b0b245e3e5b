"""Ensemble statistics: averaging independent runs.

"The necessary statistics may be obtained from the averaging of a
large number of small, independent simulations" (paper, section 1,
third parallelisation route).  This module runs a simulator factory
over independent seeds and aggregates the sampled coverages into mean
and standard-deviation bands — the reference yardstick against which
single approximate-algorithm runs are compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..dmc.base import SimulationResult, SimulatorBase

__all__ = ["EnsembleResult", "run_ensemble", "stack_statistics"]


@dataclass
class EnsembleResult:
    """Aggregated coverage statistics over independent runs."""

    times: np.ndarray
    mean: dict[str, np.ndarray]
    std: dict[str, np.ndarray]
    n_runs: int
    results: list[SimulationResult]

    def band(self, species: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, mean, std) for one species."""
        return self.times, self.mean[species], self.std[species]

    def stderr(self, species: str) -> np.ndarray:
        """Standard error of the ensemble mean, ``std / sqrt(n_runs)``."""
        return self.std[species] / np.sqrt(self.n_runs)


def stack_statistics(
    times: np.ndarray,
    stacks: dict[str, np.ndarray],
    results: list[SimulationResult] | None = None,
) -> EnsembleResult:
    """Reduce stacked ``(R, G)`` coverage series to mean/std bands.

    :func:`run_ensemble` stacks the series from R sequential runs and
    reduces them here.
    """
    if not stacks:
        raise ValueError("no coverage series to reduce; sample with an interval")
    n_runs = {arr.shape[0] for arr in stacks.values()}
    if len(n_runs) != 1:
        raise ValueError(f"inconsistent replica counts across species: {n_runs}")
    r = n_runs.pop()
    if r < 1:
        raise ValueError("need at least one replica")
    return EnsembleResult(
        times=np.asarray(times),
        mean={sp: arr.mean(axis=0) for sp, arr in stacks.items()},
        std={
            sp: arr.std(axis=0, ddof=1 if r > 1 else 0)
            for sp, arr in stacks.items()
        },
        n_runs=r,
        results=results or [],
    )


def run_ensemble(
    factory: Callable[[int | np.random.Generator], SimulatorBase],
    seeds: Sequence[int | np.random.Generator],
    until: float,
    keep_results: bool = False,
) -> EnsembleResult:
    """Run ``factory(seed)`` for every seed and average the coverages.

    This is the in-process replica loop; ``repro sweep`` over a
    scenario's ``[sweep] seed`` grid is the journaled one.  A seed may
    be an int or a ``Generator`` (e.g. from
    :func:`repro.core.rng.spawn_rngs`) and is passed to ``factory`` as
    given, so replica ``r`` equals a solo run with ``seeds[r]``.

    Every simulator must carry at least one coverage observer sampling
    the *same* time grid (same interval and origin); runs are truncated
    to the shortest sampled grid before averaging.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    results: list[SimulationResult] = []
    for seed in seeds:
        sim = factory(seed)
        results.append(sim.run(until=until))
    n_keep = min(len(r.times) for r in results)
    if n_keep == 0:
        raise ValueError("runs produced no coverage samples; add a CoverageObserver")
    times = results[0].times[:n_keep]
    for r in results[1:]:
        if not np.allclose(r.times[:n_keep], times):
            raise ValueError("runs sampled different time grids; use one observer config")
    species = list(results[0].coverage)
    stacks = {
        sp: np.vstack([r.coverage[sp][:n_keep] for r in results]) for sp in species
    }
    return stack_statistics(times, stacks, results if keep_results else [])
