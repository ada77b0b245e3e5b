"""The First Reaction Method (FRM).

The third classic DMC algorithm from the taxonomy the paper cites:
every enabled reaction ``(type, anchor)`` carries a *tentative
occurrence time* drawn from ``t_now + Exp(k_type)``; the simulation
repeatedly executes the reaction with the smallest tentative time.

Because the exponential distribution is memoryless, regenerating the
tentative time of a reaction whenever it is (re-)enabled yields the
same stochastic process as keeping it — this implementation uses a
binary heap with lazy invalidation: a version counter per
``(type, anchor)`` pair stamps heap entries; stale entries are skipped
on pop.

FRM, VSSM and RSM all simulate the same Master Equation; the three are
used to cross-validate each other in the correctness tests.
"""

from __future__ import annotations

import heapq

from .base import SimulatorBase

__all__ = ["FRM"]


class FRM(SimulatorBase):
    """First Reaction Method simulator (heap-based, lazy invalidation)."""

    algorithm = "FRM"

    def __init__(self, *args, **kwargs):
        if kwargs.get("time_mode", "stochastic") != "stochastic":
            raise ValueError("FRM is intrinsically stochastic; deterministic time is undefined")
        super().__init__(*args, **kwargs)
        #: heap of (tentative_time, version, type, anchor)
        self._heap: list[tuple[float, int, int, int]] = []
        #: current version of each (type, anchor); -1 = disabled
        self._version: dict[tuple[int, int], int] = {}
        self._vcounter = 0
        comp = self.compiled
        for i in range(comp.n_types):
            for s in comp.enabled_anchor_sites(self.state.array, i).tolist():
                self._schedule(i, int(s))

    def _schedule(self, type_index: int, anchor: int) -> None:
        """(Re)draw the tentative time of an enabled reaction."""
        self._vcounter += 1
        key = (type_index, anchor)
        self._version[key] = self._vcounter
        t = self.time + float(
            self.rng.exponential(scale=1.0 / self.compiled.types[type_index].rate)
        )
        heapq.heappush(self._heap, (t, self._vcounter, type_index, anchor))

    def _invalidate(self, type_index: int, anchor: int) -> None:
        self._version.pop((type_index, anchor), None)

    def _update_after(self, type_index: int, site: int) -> None:
        comp = self.compiled
        ct = comp.types[type_index]
        changed = [int(m[site]) for m in ct.maps]
        for anchor in comp.affected_anchors(changed).tolist():
            for j in range(comp.n_types):
                key = (j, anchor)
                enabled = comp.is_enabled(self.state.array, j, anchor)
                scheduled = key in self._version
                if enabled and not scheduled:
                    self._schedule(j, anchor)
                elif not enabled and scheduled:
                    self._invalidate(j, anchor)

    def pending(self) -> int:
        """Number of currently scheduled (valid) reactions."""
        return len(self._version)

    def _step_block(self, until: float) -> int:
        heap = self._heap
        while heap:
            t, version, t_idx, anchor = heap[0]
            if self._version.get((t_idx, anchor)) != version:
                heapq.heappop(heap)  # stale entry
                continue
            if t >= until:
                self.time = until
                return 1
            heapq.heappop(heap)
            self._version.pop((t_idx, anchor))
            self.time = t
            # the grid times this waiting time crosses see the state
            # before the event
            self._notify()
            self.compiled.execute(self.state.array, t_idx, anchor)
            self.executed_per_type[t_idx] += 1
            self.n_trials += 1
            if self.trace is not None:
                self.trace.append(self.time, t_idx, anchor)
            self._update_after(t_idx, anchor)
            return 1
        # no enabled reactions: absorbing state
        self.time = until
        return 0
