"""The Segers correctness criteria as an executable experiment.

Section 6 of the paper: an algorithm simulates the Master Equation
correctly iff only enabled reactions execute and

1. the waiting time of a reaction of type ``i`` is ``Exp(k_i)``;
2. the next reaction is of type ``i`` with probability proportional
   to ``k_i`` (times the number of enabled instances).

The probe model makes the criteria directly measurable: "tick"
reaction types that are enabled in *every* state (they rewrite a site
to its current species), so each type's event stream must be a Poisson
process of rate ``k_i * N`` and the type mix must follow the rate
ratios.  The driver runs the probe through any of the package's
simulators and applies KS tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.waiting_times import (
    check_exponential_waiting_times,
    type_selection_ratio,
)
from ..core.lattice import Lattice
from ..core.model import Model
from ..core.reaction import ReactionType
from ..io.report import format_table

__all__ = ["tick_model", "CriteriaResult", "run_criteria", "run_segers", "criteria_report"]


def tick_model(rates: tuple[float, ...] = (0.7, 1.3, 2.0)) -> Model:
    """Always-enabled single-site reaction types (state never changes)."""
    rts = [
        ReactionType(f"tick{i}", [((0, 0), "A", "A")], k)
        for i, k in enumerate(rates)
    ]
    return Model(["A"], rts, name="tick")


@dataclass
class CriteriaResult:
    """Outcome of the two Segers criteria for one algorithm."""
    algorithm: str
    n_events: int
    p_values: list[float]            # criterion 1 KS p-value per type
    empirical_ratios: np.ndarray     # criterion 2: observed type mix
    expected_ratios: np.ndarray

    @property
    def criterion1_ok(self) -> bool:
        """Are all per-type waiting times compatible with exponentials (KS)?"""
        return all(p > 0.01 for p in self.p_values)

    @property
    def criterion2_ok(self) -> bool:
        """Does the event type mix follow the rate ratios k_i/K?"""
        return bool(
            np.all(np.abs(self.empirical_ratios - self.expected_ratios) < 0.02)
        )


def run_criteria(
    simulator_cls=None,
    rates: tuple[float, ...] = (0.7, 1.3, 2.0),
    side: int = 4,
    until: float = 400.0,
    seed: int = 0,
    **sim_kwargs,
) -> CriteriaResult:
    """Run the tick probe through a simulator class (default RSM)."""
    from ..dmc.rsm import RSM

    simulator_cls = simulator_cls or RSM
    model = tick_model(rates)
    lattice = Lattice((side, side))
    sim = simulator_cls(
        model, lattice, seed=seed, record_events=True, **sim_kwargs
    )
    sim.run(until=until)
    trace = sim.trace
    n = lattice.n_sites
    p_values = []
    for i, k in enumerate(rates):
        # the type's event stream over the whole lattice is Poisson of
        # rate k * N (N independent always-enabled instances)
        rep = check_exponential_waiting_times(trace, i, expected_rate=k * n)
        p_values.append(rep.p_value)
    ratios = type_selection_ratio(trace, model.n_types)
    expected = np.array(rates) / sum(rates)
    return CriteriaResult(
        algorithm=sim.algorithm,
        n_events=len(trace),
        p_values=p_values,
        empirical_ratios=ratios,
        expected_ratios=expected,
    )


def run_segers() -> list[CriteriaResult]:
    """The reported probes at seed 1: RSM (passes both criteria), NDCA (fails 1)."""
    from ..ca.ndca import NDCA
    from ..dmc.rsm import RSM

    return [run_criteria(RSM, seed=1), run_criteria(NDCA, seed=1)]


def criteria_report(results: list[CriteriaResult] | None = None) -> str:
    """Render the criteria table (defaults: :func:`run_segers`)."""
    results = results or run_segers()
    body = []
    for r in results:
        body.append(
            (
                r.algorithm,
                r.n_events,
                " ".join(f"{p:.2f}" for p in r.p_values),
                " ".join(f"{x:.3f}" for x in r.empirical_ratios),
                " ".join(f"{x:.3f}" for x in r.expected_ratios),
                "ok" if (r.criterion1_ok and r.criterion2_ok) else "FAIL",
            )
        )
    return (
        "Segers correctness criteria (tick probe)\n"
        + format_table(
            [
                "algorithm",
                "events",
                "KS p per type",
                "type mix",
                "expected mix",
                "verdict",
            ],
            body,
        )
    )
