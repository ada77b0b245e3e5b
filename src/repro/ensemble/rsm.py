"""Vectorized multi-replica RSM.

Replica ``r`` reproduces :class:`repro.dmc.rsm.RSM` bit-for-bit: per
block it draws the same ``block`` sites, types and waiting times from
its private generator, uses the same ``searchsorted`` trial-count /
end-time arithmetic, and samples coverages at exactly the grid
crossings the sequential observer machinery would.  Only the state
mutation differs mechanically: the R per-replica trial streams run
concurrently through :func:`repro.core.kernels.run_trials_interleaved`,
which cuts each stream into conflict-free prefixes and executes the
union across replicas as simultaneous batches — bit-identical to the
scalar loop because footprint-disjoint reactions commute.
"""

from __future__ import annotations

import numpy as np

from ..core.contracts import kernel
from ..core.rng import draw_sites, draw_types
from .base import EnsembleBase

__all__ = ["EnsembleRSM"]


class EnsembleRSM(EnsembleBase):
    """Stacked Random Selection Method over R replicas.

    Extra parameters: ``block`` (trials drawn per random block, must
    match the sequential simulator's for bit-identity) and ``window``
    (conflict-scan lookahead of the interleaved kernel; a pure
    performance knob with no effect on results).
    """

    algorithm = "RSM"

    def __init__(self, *args, block: int = 8192, window: int = 16, **kwargs):
        super().__init__(*args, **kwargs)
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self.block = int(block)
        self.window = int(window)

    @kernel(
        writes=(
            "self.states",
            "self.executed_per_type",
            "self.times",
            "self.n_trials",
            "self._attempted_per_type",
        ),
    )
    def _step_block(self, until: float, active: np.ndarray) -> int:
        comp = self.compiled
        n = self.block
        r_total = self.n_replicas
        # zero-filled so inactive rows hold valid site indices: the
        # interleaved kernel's lookahead reads (and discards) them
        sites_blk = np.zeros((r_total, n), dtype=np.intp)
        types_blk = np.zeros((r_total, n), dtype=np.intp)
        n_use = np.zeros(r_total, dtype=np.intp)
        end_time = self.times.copy()
        # per replica: positions where the stream pauses for a coverage
        # sample (the sequential observer's grid crossings)
        cuts: list[list[int]] = [[] for _ in range(r_total)]
        for r in active:
            rng = self.rngs[r]
            sites_blk[r] = draw_sites(rng, comp.n_sites, n)
            types_blk[r] = draw_types(rng, comp.type_cum, n)
            if self.time_mode == "stochastic":
                dts = rng.exponential(scale=1.0 / self.nk_rate, size=n)
            else:
                dts = np.full(n, 1.0 / self.nk_rate)
            times_r = self.times[r] + np.cumsum(dts)
            # only trials occurring strictly before `until` happen
            k_use = int(np.searchsorted(times_r, until, side="left"))
            n_use[r] = k_use
            end_time[r] = until if k_use < n else float(times_r[-1])
            if self.metrics.enabled and k_use:
                self._record_attempts(types_blk[r][:k_use])
            if self.sample_interval is not None:
                k = int(self._sample_k[r])
                while k * self.sample_interval <= end_time[r]:
                    due = k * self.sample_interval
                    cuts[r].append(
                        min(k_use, int(np.searchsorted(times_r, due, side="left")))
                    )
                    k += 1

        # execute in rounds split at the sample cuts: round j runs every
        # replica up to its j-th cut (or to its end), then samples
        starts = np.zeros(r_total, dtype=np.intp)
        n_rounds = max(len(c) for c in cuts) + 1 if cuts else 1
        for j in range(n_rounds):
            stops = np.array(
                [
                    cuts[r][j] if j < len(cuts[r]) else n_use[r]
                    for r in range(r_total)
                ],
                dtype=np.intp,
            )
            self.kernels.run_trials_interleaved(
                self.states,
                comp,
                sites_blk,
                types_blk,
                starts,
                stops,
                counts=self.executed_per_type,
                window=self.window,
            )
            for r in active:
                if j < len(cuts[r]):
                    self._sample_replica(r)
            starts = stops

        self.times[active] = end_time[active]
        self.n_trials[active] += n_use[active]
        return int(n_use.sum())
