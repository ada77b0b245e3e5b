"""The Non-Deterministic Cellular Automaton (NDCA).

A standard CA treats all patterns on the same footing; to encode that
different reactions proceed at different speeds, the NDCA (paper,
section 4) makes the per-site decision probabilistic::

    for each step
        for each site s
            1. select a reaction type i with probability ki/K;
            2. check whether the reaction is enabled at s;
            3. if it is, execute it;
            4. advance the time;

Every site is visited *exactly once* per step — the crucial difference
from RSM, where a site can be chosen twice (or not at all) within one
MC step.  This difference biases reaction rates and makes NDCA
degenerate for some systems (Ising, single-file; Vichniac 1984), which
the bias benchmarks demonstrate.

True synchronous update is impossible in the presence of conflicts
(see :mod:`repro.ca.sync`); the NDCA here executes the per-step sweep
sequentially in a configurable site order (``"raster"`` — the literal
reading of the pseudo-code — or ``"random"``, a fresh permutation per
step, which removes directional sweep artefacts).
"""

from __future__ import annotations

import numpy as np

from ..core.rng import draw_types
from ..dmc.base import SimulatorBase

__all__ = ["NDCA"]


class NDCA(SimulatorBase):
    """Non-deterministic CA: one rate-weighted trial per site per step."""

    algorithm = "NDCA"

    def __init__(self, *args, order: str = "raster", **kwargs):
        super().__init__(*args, **kwargs)
        if order not in ("raster", "random"):
            raise ValueError(f"unknown site order {order!r}")
        self.order = order

    def _step_block(self, until: float) -> int:
        comp = self.compiled
        n = comp.n_sites
        if self.order == "raster":
            sites = np.arange(n, dtype=np.intp)
        else:
            sites = self.rng.permutation(n).astype(np.intp)
        types = draw_types(self.rng, comp.type_cum, n)
        if self.metrics.enabled:
            self._record_attempts(types)
        record: list | None = [] if self.trace is not None else None
        t_start = self.time
        self.kernels.run_trials_sequential(
            self.state.array,
            comp,
            sites,
            types,
            counts=self.executed_per_type,
            record=record,
        )
        self.n_trials += n
        self.time = t_start + self.time_increment(n)
        if record is not None and record:
            # within-step event times: linear interpolation on the trial axis
            dt = (self.time - t_start) / n
            for idx, t_idx, s in record:
                self.trace.append(t_start + (idx + 1) * dt, t_idx, s)  # type: ignore[union-attr]
        return n
