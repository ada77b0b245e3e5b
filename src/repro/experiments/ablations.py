"""Ablations for the design choices DESIGN.md calls out.

* **Chunk-selection strategies** (PNDCA options 1-4, section 5): how
  do ordered / random-order / random / weighted schedules trade
  accuracy (deviation from RSM on the oscillatory workload) against
  throughput (the weighted schedule pays an enabling scan per draw)?
* **Kernels**: the same trial stream through the sequential
  (python-loop) kernel vs the vectorised conflict-free batch kernel —
  the single-machine stand-in for the paper's chunk parallelism.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..ca.pndca import PNDCA, STRATEGIES
from ..core.kernels import run_trials_batch, run_trials_sequential
from ..core.lattice import Lattice
from ..core.rng import draw_types, make_rng
from ..io.report import format_table
from ..lint import preflight_partition
from ..models.pt100 import hex_surface
from ..models.zgb import ziff_model
from ..partition.tilings import five_chunk_partition
from .oscillation_common import Curve, make_observer, rsm_factory, run_curve

__all__ = [
    "StrategyAblation",
    "run_strategy_ablation",
    "strategy_ablation_report",
    "KernelAblation",
    "run_kernel_ablation",
    "kernel_ablation_report",
]


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

@dataclass
class StrategyAblation:
    """Curves, deviations and throughputs per chunk-selection strategy."""
    rsm: Curve
    null_rmse: float
    curves: dict[str, Curve] = field(default_factory=dict)
    rmse: dict[str, float] = field(default_factory=dict)
    trials_per_second: dict[str, float] = field(default_factory=dict)


def _pndca_factory(seed: int, strategy: str):
    from ..dmc.base import SimulatorBase

    def build(model, lattice) -> SimulatorBase:
        return PNDCA(
            model, lattice, seed=seed, initial=hex_surface(lattice, model),
            partition=five_chunk_partition(lattice), strategy=strategy,
            observers=[make_observer()],
        )

    return build


def run_strategy_ablation(
    side: int = 25, until: float = 40.0, seed: int = 41
) -> StrategyAblation:
    # side must be a multiple of 5 for the five-chunk tiling
    """Run all four PNDCA chunk-selection strategies against RSM."""
    rsm = run_curve("RSM", rsm_factory(seed), side, until)
    rsm_alt = run_curve("RSM'", rsm_factory(seed + 100), side, until)
    out = StrategyAblation(rsm=rsm, null_rmse=rsm_alt.rmse_to(rsm))
    for i, strategy in enumerate(STRATEGIES):
        c = run_curve(
            f"PNDCA {strategy}",
            _pndca_factory(seed + 200 + i, strategy),
            side,
            until,
        )
        out.curves[strategy] = c
        out.rmse[strategy] = c.rmse_to(rsm)
        out.trials_per_second[strategy] = (
            c.n_trials / c.wall_time if c.wall_time > 0 else float("inf")
        )
    return out


def strategy_ablation_report(result: StrategyAblation | None = None) -> str:
    """Render the strategy ablation (runs with defaults when no result given)."""
    r = result or run_strategy_ablation()
    body = []
    for strategy, c in r.curves.items():
        body.append(
            (
                strategy,
                f"{r.rmse[strategy]:.3f}",
                f"{c.oscillation.strength:.2f}",
                "yes" if c.oscillation.oscillating else "no",
                f"{r.trials_per_second[strategy] / 1e6:.2f}",
            )
        )
    return (
        "Ablation - PNDCA chunk-selection strategies (Pt(100) model)\n"
        + format_table(
            ["strategy", "rmse vs RSM", "strength", "oscillating", "Mtrials/s"],
            body,
        )
        + f"\nnull RSM-vs-RSM rmse: {r.null_rmse:.3f}"
    )


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------

@dataclass
class KernelAblation:
    """Timings of the sequential vs vectorised kernels on identical batches."""
    n_trials: int
    sequential_seconds: float
    batch_seconds: float
    identical_states: bool

    @property
    def speedup(self) -> float:
        """Vectorised-over-sequential wall-clock ratio."""
        return self.sequential_seconds / self.batch_seconds


def run_kernel_ablation(side: int = 100, repeats: int = 20, seed: int = 5) -> KernelAblation:
    """Time both kernels over identical conflict-free trial batches."""
    model = ziff_model()
    lattice = Lattice((side, side))
    comp = model.compile(lattice)
    p5 = five_chunk_partition(lattice)
    preflight_partition(p5, model)
    rng = make_rng(seed)
    # a mixed state so matches both succeed and fail
    state0 = rng.integers(0, 3, size=lattice.n_sites).astype(np.uint8)

    batches = []
    for _ in range(repeats):
        for chunk in p5.chunks:
            batches.append((chunk, draw_types(rng, comp.type_cum, chunk.size)))

    seq_state = state0.copy()
    t0 = time.perf_counter()
    for sites, types in batches:
        run_trials_sequential(seq_state, comp, sites, types)
    t_seq = time.perf_counter() - t0

    bat_state = state0.copy()
    t0 = time.perf_counter()
    for sites, types in batches:
        run_trials_batch(bat_state, comp, sites, types)
    t_bat = time.perf_counter() - t0

    n_trials = sum(len(s) for s, _ in batches)
    return KernelAblation(
        n_trials=n_trials,
        sequential_seconds=t_seq,
        batch_seconds=t_bat,
        identical_states=bool(np.array_equal(seq_state, bat_state)),
    )


def kernel_ablation_report(result: KernelAblation | None = None) -> str:
    """Render the kernel ablation (runs with defaults when no result given)."""
    r = result or run_kernel_ablation()
    body = [
        ("sequential (python loop)", f"{r.sequential_seconds:.3f}",
         f"{r.n_trials / r.sequential_seconds / 1e6:.2f}"),
        ("vectorised batch", f"{r.batch_seconds:.3f}",
         f"{r.n_trials / r.batch_seconds / 1e6:.2f}"),
    ]
    return (
        "Ablation - sequential vs vectorised chunk kernel (Ziff model)\n"
        + format_table(["kernel", "seconds", "Mtrials/s"], body)
        + f"\nspeedup {r.speedup:.1f}x; identical final states: {r.identical_states}"
    )


if __name__ == "__main__":
    print(strategy_ablation_report())
    print()
    print(kernel_ablation_report())
