"""Segers-style domain decomposition — the paper's comparison point.

Section 3 recounts the earlier parallelisation route of Segers et al.:
assign *coherent* (contiguous) lattice chunks to processors, run RSM
inside each, and exchange state for reactions that cross chunk
boundaries.  The overhead of that boundary communication is what the
paper's partition approach eliminates; "the trade-off is given by the
volume/boundary ratio of the blocks".

This module emulates the decomposed algorithm sequentially (strip
by strip in time windows) while *counting* every event that would
require communication — a reaction whose pattern touches a site owned
by another strip.  Combined with a :class:`~repro.parallel.machine.MachineSpec`
it yields the modelled parallel time of the domain-decomposition
method, so the volume/boundary trade-off can be quantified against
PNDCA (see the ``fig7`` report, ``repro.experiments.fig7_speedup``).

Accuracy note: within one exchange window each strip simulates with a
frozen halo, so the kinetics deviate from exact RSM as the window
grows — the same accuracy-for-performance trade the paper discusses
for its own methods.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.rng import draw_sites, draw_types
from ..dmc.base import SimulatorBase
from .machine import MachineSpec

__all__ = ["DomainDecomposedRSM"]


class DomainDecomposedRSM(SimulatorBase):
    """RSM over ``p`` contiguous strips with per-window halo exchange.

    Parameters (beyond :class:`~repro.dmc.base.SimulatorBase`)
    ----------
    n_strips:
        Number of processors / contiguous row strips.
    window:
        Trials per strip between exchanges (the exchange window); the
        default of one MC step per strip (``N/p`` trials) matches a
        bulk-synchronous implementation.

    After a run, ``boundary_events`` and ``interior_events`` hold the
    executed-reaction counts that would/would not require
    communication, and :meth:`modelled_parallel_time` converts them
    into a wall-clock estimate on a modelled machine.
    """

    algorithm = "DD-RSM"

    def __init__(self, *args, n_strips: int = 4, window: int | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        if self.lattice.ndim != 2:
            raise ValueError("domain decomposition is implemented for 2-d lattices")
        l0 = self.lattice.shape[0]
        if not 1 <= n_strips <= l0:
            raise ValueError(f"cannot cut {l0} rows into {n_strips} strips")
        self.n_strips = n_strips
        self.window = window or max(1, self.lattice.n_sites // n_strips)
        rows = np.array_split(np.arange(l0), n_strips)
        l1 = self.lattice.shape[1]
        self.strips = [
            (np.repeat(r, l1) * l1 + np.tile(np.arange(l1), len(r))).astype(np.intp)
            for r in rows
        ]
        self._strip_of_row = np.empty(l0, dtype=np.intp)
        for i, r in enumerate(rows):
            self._strip_of_row[r] = i
        # an anchor is a *boundary anchor* if any reaction pattern
        # anchored there can touch a row owned by another strip
        offs = self.model.union_neighborhood()
        row_reach = max(abs(o[0]) for o in offs)
        # an anchor row is boundary iff a row within the pattern reach
        # (periodically) belongs to a different strip
        self._boundary_anchor = np.zeros(self.lattice.n_sites, dtype=bool)
        for row in range(l0):
            own = self._strip_of_row[row]
            for dr in range(-row_reach, row_reach + 1):
                if self._strip_of_row[(row + dr) % l0] != own:
                    self._boundary_anchor[row * l1 : (row + 1) * l1] = True
                    break
        self.boundary_events = 0
        self.interior_events = 0
        self.exchanges = 0
        self.algorithm = f"DD-RSM[p={n_strips},window={self.window}]"

    # ------------------------------------------------------------------
    def _step_block(self, until: float) -> int:
        """One exchange window on every strip (random strip order)."""
        comp = self.compiled
        total = 0
        for i in self.rng.permutation(self.n_strips):
            strip = self.strips[int(i)]
            n = self.window
            sites = strip[draw_sites(self.rng, strip.size, n)]
            types = draw_types(self.rng, comp.type_cum, n)
            record: list = []
            self.kernels.run_trials_sequential(
                self.state.array, comp, sites, types,
                counts=self.executed_per_type, record=record,
            )
            for _, _, s in record:
                if self._boundary_anchor[s]:
                    self.boundary_events += 1
                else:
                    self.interior_events += 1
            total += n
        self.exchanges += 1
        self.n_trials += total
        self.time += self.time_increment(total)
        self._notify()
        return total

    # ------------------------------------------------------------------
    def volume_boundary_ratio(self) -> float:
        """Interior / boundary anchor-site ratio of the decomposition."""
        b = int(self._boundary_anchor.sum())
        if b == 0:
            return math.inf
        return (self.lattice.n_sites - b) / b

    def modelled_parallel_time(self, spec: MachineSpec) -> float:
        """Wall-clock estimate of the run on a modelled machine.

        Per exchange window: the strips compute concurrently
        (``window * t_trial`` each), then exchange halos — modelled as
        one latency round plus per-boundary-event update traffic.
        """
        compute = self.exchanges * self.window * spec.t_trial
        comm = 0.0
        if self.n_strips > 1:
            comm = self.exchanges * spec.t_latency * math.ceil(
                math.log2(self.n_strips)
            ) + self.boundary_events * spec.t_update
        return compute + comm
