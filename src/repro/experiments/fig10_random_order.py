"""Fig. 10: random chunk order keeps oscillations even at maximal L.

The paper's Fig. 10: with the five-chunk partition and the *maximal*
work per chunk (``L = N/m``, every chunk's full share), the chunk
schedule decides the outcome —

* selecting chunks at random *with replacement* (each selection
  probability ``|Pi|/N``, Fig. 9's schedule) starves chunks for long
  stretches; at this L the correlations wash the oscillations out;
* visiting **all chunks exactly once per step in random order**
  retains the oscillatory behaviour even at maximal L — full
  parallelisation with accurate results (the paper's closing point).

The driver runs RSM plus both schedules at ``L = N/m`` and reports
oscillation summaries.
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

__all__ = ["Fig10Result", "run_fig10", "fig10_report"]


@dataclass
class Fig10Result:
    """The three curves of the Fig. 10 schedule comparison."""
    rsm: Curve
    random_order: Curve      # all chunks once per step, shuffled (Fig. 10)
    with_replacement: Curve  # size-proportional repeat selection (Fig. 9 schedule)

    @property
    def random_order_oscillates(self) -> bool:
        """The paper's headline claim: does the random-order schedule oscillate?"""
        return self.random_order.oscillation.oscillating

    @property
    def rmse_random_order(self) -> float:
        """CO-curve RMS deviation of the random-order schedule from RSM."""
        return self.random_order.rmse_to(self.rsm)

    @property
    def rmse_with_replacement(self) -> float:
        """CO-curve RMS deviation of the with-replacement schedule from RSM."""
        return self.with_replacement.rmse_to(self.rsm)


def run_fig10(
    side: int = DEFAULT_SIDE, until: float = DEFAULT_UNTIL, seed: int = 31
) -> Fig10Result:
    """Run RSM and both maximal-L chunk schedules on the Pt(100) workload."""
    rsm = run_curve("RSM", rsm_factory(seed), side, until)
    random_order = run_curve(
        "L-PNDCA m=5 L=N/m random-order",
        lpndca_factory(
            seed + 200, partition="five", L="chunk", chunk_selection="random-order"
        ),
        side,
        until,
    )
    with_replacement = run_curve(
        "L-PNDCA m=5 L=N/m with-replacement",
        lpndca_factory(
            seed + 300, partition="five", L="chunk",
            chunk_selection="size-proportional",
        ),
        side,
        until,
    )
    return Fig10Result(
        rsm=rsm, random_order=random_order, with_replacement=with_replacement
    )


def fig10_report(result: Fig10Result | None = None) -> str:
    """Render the Fig. 10 comparison (runs with defaults when no result given)."""
    r = result or run_fig10()
    body = []
    for c in (r.rsm, r.random_order, r.with_replacement):
        body.append(
            (
                c.label,
                f"{c.oscillation.period:.1f}",
                f"{c.oscillation.amplitude:.3f}",
                f"{c.oscillation.strength:.2f}",
                "yes" if c.oscillation.oscillating else "no",
            )
        )
    lines = [
        "Fig. 10 - chunk schedules at maximal L = N/m (Pt(100) model)",
        "",
        format_table(
            ["curve", "period", "amplitude", "strength", "oscillating"], body
        ),
        "",
        f"rmse vs RSM: random-order = {r.rmse_random_order:.3f}, "
        f"with-replacement = {r.rmse_with_replacement:.3f}",
        f"random-order schedule keeps the oscillations: "
        f"{r.random_order_oscillates} (the paper's full-parallelisation case)",
    ]
    return "\n".join(lines)
