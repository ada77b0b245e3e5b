"""Fig. 9: the effect of the trials-per-chunk parameter L (five chunks).

The paper's Fig. 9 compares RSM against L-PNDCA with the optimal
five-chunk partition and size-proportional random chunk selection:

* (a) ``L = 1``  — L-PNDCA gives almost the same results as DMC;
* (b) ``L = 100`` — the correlations introduced by spending more
  consecutive trials inside one chunk shift the oscillations in time
  and degrade the agreement; for very large ``L`` the oscillations
  disappear altogether.

The driver runs RSM and a sweep of ``L`` values, reporting oscillation
summaries, RMS deviation from RSM and the estimated time shift of the
oscillations, plus the RSM-vs-RSM null deviation as the yardstick.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..io.report import format_table
from .oscillation_common import (
    DEFAULT_SIDE,
    DEFAULT_UNTIL,
    Curve,
    lpndca_factory,
    rsm_factory,
    run_curve,
)

__all__ = ["Fig9Result", "run_fig9", "fig9_report"]


@dataclass
class Fig9Result:
    """Curves and deviation metrics of the Fig. 9 comparison."""
    rsm: Curve
    null_rmse: float
    by_L: dict[int, Curve] = field(default_factory=dict)
    rmse_by_L: dict[int, float] = field(default_factory=dict)
    shift_by_L: dict[int, float] = field(default_factory=dict)

    @property
    def small_L_matches(self) -> bool:
        """Does the smallest L track RSM (within 2x the null deviation)?"""
        l_min = min(self.by_L)
        return self.rmse_by_L[l_min] <= 2.0 * self.null_rmse

    @property
    def all_oscillate(self) -> bool:
        """Do all swept L values retain oscillatory behaviour?"""
        return all(c.oscillation.oscillating for c in self.by_L.values())


def run_fig9(
    side: int = DEFAULT_SIDE,
    until: float = DEFAULT_UNTIL,
    seed: int = 21,
    Ls: tuple[int, ...] = (1, 100),
) -> Fig9Result:
    """Run RSM plus an L sweep of L-PNDCA on the Pt(100) workload."""
    rsm = run_curve("RSM", rsm_factory(seed), side, until)
    rsm_alt = run_curve("RSM'", rsm_factory(seed + 100), side, until)
    out = Fig9Result(rsm=rsm, null_rmse=rsm_alt.rmse_to(rsm))
    for i, L in enumerate(Ls):
        c = run_curve(
            f"L-PNDCA m=5 L={L}",
            lpndca_factory(seed + 200 + i, partition="five", L=int(L)),
            side,
            until,
        )
        out.by_L[int(L)] = c
        out.rmse_by_L[int(L)] = c.rmse_to(rsm)
        out.shift_by_L[int(L)] = c.phase_shift_to(rsm)
    return out


def fig9_report(result: Fig9Result | None = None) -> str:
    """Render the Fig. 9 comparison (runs with defaults when no result given)."""
    r = result or run_fig9()
    body = [
        (
            "RSM",
            f"{r.rsm.oscillation.period:.1f}",
            f"{r.rsm.oscillation.amplitude:.3f}",
            f"{r.rsm.oscillation.strength:.2f}",
            "-",
            "-",
        )
    ]
    for L, c in sorted(r.by_L.items()):
        body.append(
            (
                f"L={L}",
                f"{c.oscillation.period:.1f}",
                f"{c.oscillation.amplitude:.3f}",
                f"{c.oscillation.strength:.2f}",
                f"{r.rmse_by_L[L]:.3f}",
                f"{r.shift_by_L[L]:+.1f}",
            )
        )
    lines = [
        "Fig. 9 - L-PNDCA with five chunks: the effect of L (Pt(100) model)",
        "",
        format_table(
            ["curve", "period", "amplitude", "strength", "rmse vs RSM", "time shift"],
            body,
        ),
        "",
        f"null RSM-vs-RSM rmse: {r.null_rmse:.3f}",
        f"L=1 statistically matches RSM: {r.small_L_matches}",
    ]
    return "\n".join(lines)
