"""The Variable Step Size Method (VSSM / Gillespie's direct method).

A rejection-free DMC algorithm from the Segers taxonomy the paper
cites: instead of blind trials, the simulator keeps track of the set of
*enabled* reactions and, per event,

1. draws the waiting time from ``Exp(R)`` with
   ``R = sum_i k_i |E_i|`` (``E_i`` = anchors where type ``i`` is
   enabled),
2. selects a type with probability ``k_i |E_i| / R`` and a uniformly
   random enabled anchor of that type,
3. executes, then incrementally updates the enabled sets of the
   affected anchors.

VSSM simulates the Master Equation exactly (same stochastic process as
RSM, without rejected trials) and serves as an independent baseline to
corroborate the RSM kinetics.  Its per-event bookkeeping cost makes it
the better choice when acceptance is low; RSM wins when most trials
succeed — a classic DMC trade-off.

"Trials" reported by this simulator are *events* (every trial
executes); MC-step accounting therefore differs from RSM's.
"""

from __future__ import annotations

import numpy as np

from .base import SimulatorBase
from .indexed_set import IndexedSet

__all__ = ["VSSM"]


class VSSM(SimulatorBase):
    """Variable Step Size Method (rejection-free DMC) simulator."""

    algorithm = "VSSM"

    def __init__(self, *args, **kwargs):
        if kwargs.get("time_mode", "stochastic") != "stochastic":
            raise ValueError("VSSM is intrinsically stochastic; deterministic time is undefined")
        super().__init__(*args, **kwargs)
        self._enabled: list[IndexedSet] = []
        self._scan_enabled()

    def _scan_enabled(self) -> None:
        """Full scan of the lattice to (re)build the enabled sets."""
        comp = self.compiled
        self._enabled = [
            IndexedSet(comp.enabled_anchor_sites(self.state.array, i).tolist())
            for i in range(comp.n_types)
        ]

    def _update_after(self, type_index: int, site: int) -> None:
        """Incremental enabled-set update after executing a reaction."""
        comp = self.compiled
        ct = comp.types[type_index]
        changed = [int(m[site]) for m in ct.maps]
        for anchor in comp.affected_anchors(changed).tolist():
            for j in range(comp.n_types):
                if comp.is_enabled(self.state.array, j, anchor):
                    self._enabled[j].add(anchor)
                else:
                    self._enabled[j].discard(anchor)

    def total_enabled_rate(self) -> float:
        """Current total exit rate ``R = sum_i k_i |E_i|``."""
        comp = self.compiled
        return float(
            sum(comp.types[i].rate * len(self._enabled[i]) for i in range(comp.n_types))
        )

    def _step_block(self, until: float) -> int:
        comp = self.compiled
        weights = np.array(
            [comp.types[i].rate * len(self._enabled[i]) for i in range(comp.n_types)]
        )
        total = float(weights.sum())
        if total <= 0.0:
            # absorbing state: nothing can ever happen again
            self.time = until
            return 0
        dt = float(self.rng.exponential(scale=1.0 / total))
        if self.time + dt >= until:
            # the next event falls beyond the horizon: advance and stop
            self.time = until
            return 1
        self.time += dt
        # the grid times this waiting time crosses see the state before
        # the event
        self._notify()
        u = float(self.rng.random()) * total
        t_idx = int(np.searchsorted(np.cumsum(weights), u, side="right"))
        t_idx = min(t_idx, comp.n_types - 1)
        site = self._enabled[t_idx].choose(self.rng)
        comp.execute(self.state.array, t_idx, site)
        self.executed_per_type[t_idx] += 1
        self.n_trials += 1
        if self.trace is not None:
            self.trace.append(self.time, t_idx, site)
        self._update_after(t_idx, site)
        return 1
