"""The Random Selection Method (RSM) — the paper's DMC reference.

Algorithm (paper, section 3)::

    set time to 0;
    repeat
        1. select a site s randomly with probability 1/N;
        2. select a reaction type i with probability ki/K;
        3. check if the reaction type is enabled at s;
        4. if it is, execute it;
        5. advance the time by drawing from [1 - exp(-N K t)];
    until simulation time has elapsed;

A single iteration is a *trial*; one MC step is ``N`` trials.  RSM is
purely sequential — each trial sees the state left by the previous one
— which is exactly why the paper develops the partitioned CA
alternatives.

For statistics over many independent runs, loop over seeds with
:func:`repro.analysis.statistics.run_ensemble`, or journal the runs as
a ``[sweep] seed`` grid with ``repro sweep``.

Implementation notes.  The random site/type/waiting-time draws are
vectorised in blocks (semantically identical, an order of magnitude
faster — see :mod:`repro.core.rng`); the state mutation itself runs
through the sequential kernel.  Blocks are split exactly at observer
grid times, so sampled coverages are exact (no block-granularity lag).
"""

from __future__ import annotations

import numpy as np

from ..core.rng import draw_sites, draw_types
from .base import SimulatorBase

__all__ = ["RSM"]


class RSM(SimulatorBase):
    """Random Selection Method simulator.

    Extra parameter ``block`` sets how many trials are drawn per random
    block (a pure performance knob; results are block-size independent
    for a fixed seed *and* block size — changing it re-orders random
    draws like any different-but-equivalent stream).
    """

    algorithm = "RSM"

    def __init__(self, *args, block: int = 8192, **kwargs):
        super().__init__(*args, **kwargs)
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self.block = int(block)

    def _step_block(self, until: float) -> int:
        comp = self.compiled
        n = self.block
        sites = draw_sites(self.rng, comp.n_sites, n)
        types = draw_types(self.rng, comp.type_cum, n)
        if self.time_mode == "stochastic":
            dts = self.rng.exponential(scale=1.0 / self.nk_rate, size=n)
        else:
            dts = np.full(n, 1.0 / self.nk_rate)
        times = self.time + np.cumsum(dts)
        # only trials occurring strictly before `until` happen
        n_use = int(np.searchsorted(times, until, side="left"))
        end_time = until if n_use < n else float(times[-1])
        if self.metrics.enabled and n_use:
            self._record_attempts(types[:n_use])

        record: list | None = [] if self.trace is not None else None
        # execute in segments split at observer grid times, so that
        # observers sample the state exactly as of their grid point
        start = 0
        while start < n_use:
            due = min((o.next_due for o in self.observers), default=np.inf)
            if due <= self.time:
                self._notify()
                continue
            seg_end = n_use
            if due < np.inf:
                seg_end = min(
                    n_use, int(np.searchsorted(times, due, side="left"))
                )
            if seg_end > start:
                self.kernels.run_trials_sequential(
                    self.state.array,
                    comp,
                    sites[start:seg_end],
                    types[start:seg_end],
                    counts=self.executed_per_type,
                    record=record,
                )
                if record is not None and record:
                    base = start
                    for idx, t_idx, s in record:
                        self.trace.append(float(times[idx + base]), t_idx, s)  # type: ignore[union-attr]
                    record.clear()
                self.time = float(times[seg_end - 1])
                start = seg_end
            if seg_end < n_use and due < np.inf:
                # we stopped exactly at a grid boundary: cross it
                self.time = min(due, end_time)
                self._notify()
        self.time = end_time
        self.n_trials += n_use
        # n_use == 0 only when the first trial of the block already lies
        # beyond `until`; time has then been advanced to `until` and the
        # base run loop terminates on its own, so 0 never means "stuck".
        return n_use
