"""Fig. 8: the L-PNDCA limit parameterisations coincide with RSM.

The paper's Fig. 8 overlays the RSM coverage curves of the oscillatory
CO-oxidation model with L-PNDCA at the two extreme parameterisations

* ``m = 1,  L = N``  — one chunk holding the whole lattice, and
* ``m = N,  L = 1``  — one site per chunk,

both of which reduce the algorithm to RSM (section 5), so the curves
must agree *statistically* (they are independent stochastic runs, not
the same trajectory).  The driver runs the three simulators from the
same initial state, reports oscillation summaries, and quantifies
agreement by comparing the RMS deviation of each limit curve from RSM
against the *null* deviation between two independent RSM runs — the
limits match RSM exactly when their deviation is of the same size as
the null.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..io.report import format_table
from .oscillation_common import (
    DEFAULT_SIDE,
    DEFAULT_UNTIL,
    Curve,
    lpndca_factory,
    rsm_factory,
    run_curve,
)

__all__ = ["Fig8Result", "run_fig8", "fig8_report"]


@dataclass
class Fig8Result:
    """The four curves of the Fig. 8 comparison plus deviation metrics."""
    rsm: Curve
    rsm_alt: Curve          # second independent RSM run (the null)
    single_chunk: Curve     # m=1, L=N
    singletons: Curve       # m=N, L=1
    null_rmse: float
    single_rmse: float
    singleton_rmse: float

    @property
    def limits_match(self) -> bool:
        """Are both limit curves within 2x the RSM-vs-RSM null deviation?"""
        bound = 2.0 * self.null_rmse
        return self.single_rmse <= bound and self.singleton_rmse <= bound


def run_fig8(
    side: int = DEFAULT_SIDE, until: float = DEFAULT_UNTIL, seed: int = 11
) -> Fig8Result:
    """Run RSM (twice) and both L-PNDCA limits on the Pt(100) workload."""
    n = side * side
    rsm = run_curve("RSM", rsm_factory(seed), side, until)
    rsm_alt = run_curve("RSM'", rsm_factory(seed + 100), side, until)
    single = run_curve(
        "L-PNDCA m=1 L=N",
        lpndca_factory(seed + 200, partition="single", L=n),
        side,
        until,
    )
    singles = run_curve(
        "L-PNDCA m=N L=1",
        lpndca_factory(seed + 300, partition="singletons", L=1),
        side,
        until,
    )
    return Fig8Result(
        rsm=rsm,
        rsm_alt=rsm_alt,
        single_chunk=single,
        singletons=singles,
        null_rmse=rsm_alt.rmse_to(rsm),
        single_rmse=single.rmse_to(rsm),
        singleton_rmse=singles.rmse_to(rsm),
    )


def fig8_report(result: Fig8Result | None = None) -> str:
    """Render the Fig. 8 comparison (runs with defaults when no result given)."""
    r = result or run_fig8()
    curves = [r.rsm, r.rsm_alt, r.single_chunk, r.singletons]
    body = [
        (
            c.label,
            f"{c.oscillation.period:.1f}",
            f"{c.oscillation.amplitude:.3f}",
            f"{c.oscillation.strength:.2f}",
            "yes" if c.oscillation.oscillating else "no",
            c.n_trials,
        )
        for c in curves
    ]
    lines = [
        "Fig. 8 - RSM vs the L-PNDCA limit parameterisations (Pt(100) model)",
        "",
        format_table(
            ["curve", "period", "amplitude", "strength", "oscillating", "trials"],
            body,
        ),
        "",
        f"CO-curve RMS deviation from RSM: null (RSM vs RSM) = {r.null_rmse:.3f}, "
        f"m=1/L=N = {r.single_rmse:.3f}, m=N/L=1 = {r.singleton_rmse:.3f}",
        f"limits statistically match RSM (within 2x null): {r.limits_match}",
    ]
    return "\n".join(lines)
