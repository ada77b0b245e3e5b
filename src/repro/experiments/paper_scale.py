"""Paper-scale runs of the oscillation experiments (Figs. 8-10).

The default experiment scale (40x40, t = 70) keeps the benchmark suite
minutes-fast; the paper itself uses 100x100 lattices and horizons of
200-300 time units.  This module provides the paper-scale presets and
a small runner that executes them, writes each figure's report to
``<out_dir>/<figure>.txt`` and prints it — the "overnight" companion
to the quick benchmarks::

    python -m repro.experiments.paper_scale            # all three figures
    python -m repro.experiments.paper_scale fig9       # one of them

Budget estimate on one ~2 Mtrials/s core: each RSM-like curve at
100x100 / t = 200 is ~3x10^8 trials, i.e. a few minutes; the full set
of figures runs in well under an hour.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from . import fig8_limits, fig9_l_effect, fig10_random_order

__all__ = ["PAPER_SIDE", "PAPER_UNTIL", "run_paper_scale"]

#: the paper's lattice side and a horizon covering ~15 oscillation periods
PAPER_SIDE = 100
PAPER_UNTIL = 200.0

_RUNNERS = {
    "fig8": (fig8_limits.run_fig8, fig8_limits.fig8_report),
    "fig9": (fig9_l_effect.run_fig9, fig9_l_effect.fig9_report),
    "fig10": (fig10_random_order.run_fig10, fig10_random_order.fig10_report),
}


def run_paper_scale(
    which: str | None = None,
    side: int = PAPER_SIDE,
    until: float = PAPER_UNTIL,
    out_dir: str | Path = "paper_scale_results",
) -> dict[str, str]:
    """Run the selected figures at paper scale; returns id -> report."""
    keys = [which] if which else list(_RUNNERS)
    unknown = [k for k in keys if k not in _RUNNERS]
    if unknown:
        raise KeyError(f"unknown figure(s) {unknown}; choose from {sorted(_RUNNERS)}")
    out = {}
    out_path = Path(out_dir)
    out_path.mkdir(exist_ok=True)
    for key in keys:
        run, report = _RUNNERS[key]
        result = run(side=side, until=until)
        text = report(result)
        (out_path / f"{key}.txt").write_text(text + "\n")
        out[key] = text
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("which", nargs="?", help="one of fig8/fig9/fig10 (default all)")
    parser.add_argument("--side", type=int, default=PAPER_SIDE)
    parser.add_argument("--until", type=float, default=PAPER_UNTIL)
    parser.add_argument("--out-dir", default="paper_scale_results")
    a = parser.parse_args()
    for key, text in run_paper_scale(
        a.which, side=a.side, until=a.until, out_dir=a.out_dir
    ).items():
        print(text)
        print()
