"""Vectorized multi-replica NDCA.

Replica ``r`` mirrors :class:`repro.ca.ndca.NDCA` bit-for-bit: per
step it draws the same site order (a fresh permutation for
``order="random"``; the raster sweep draws nothing), the same N
rate-weighted types, executes the sweep with strict sequential
semantics and advances time by one Gamma(N) increment.

For ``order="random"`` the R sweeps run concurrently through the
interleaved conflict-free-prefix kernel.  The raster order is the one
stream the trick cannot help: consecutive raster sites are lattice
neighbours, whose footprints always overlap for multi-site models, so
every conflict-free prefix has length one.  Raster replicas therefore
fall back to the scalar kernel per replica (same results, loop-over-
replicas speed) — one more datapoint for the paper's argument that
fixed sweep orders resist parallelisation.
"""

from __future__ import annotations

import numpy as np

from ..core.contracts import kernel
from ..core.rng import draw_types
from .base import EnsembleBase

__all__ = ["EnsembleNDCA"]


class EnsembleNDCA(EnsembleBase):
    """Stacked non-deterministic CA: one trial per site per step, R replicas."""

    algorithm = "NDCA"

    def __init__(self, *args, order: str = "raster", window: int = 16, **kwargs):
        super().__init__(*args, **kwargs)
        if order not in ("raster", "random"):
            raise ValueError(f"unknown site order {order!r}")
        self.order = order
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
        n = comp.n_sites
        r_total = self.n_replicas
        sites_blk = np.zeros((r_total, n), dtype=np.intp)
        types_blk = np.zeros((r_total, n), dtype=np.intp)
        for r in active:
            rng = self.rngs[r]
            if self.order == "raster":
                sites_blk[r] = np.arange(n, dtype=np.intp)
            else:
                sites_blk[r] = rng.permutation(n).astype(np.intp)
            types_blk[r] = draw_types(rng, comp.type_cum, n)
            if self.metrics.enabled:
                self._record_attempts(types_blk[r])
        if self.order == "raster":
            for r in active:
                self.kernels.run_trials_sequential(
                    self.states[r],
                    comp,
                    sites_blk[r],
                    types_blk[r],
                    counts=self.executed_per_type[r],
                )
        else:
            stops = np.zeros(r_total, dtype=np.intp)
            stops[active] = n
            self.kernels.run_trials_interleaved(
                self.states,
                comp,
                sites_blk,
                types_blk,
                np.zeros(r_total, dtype=np.intp),
                stops,
                counts=self.executed_per_type,
                window=self.window,
            )
        for r in active:
            self.n_trials[r] += n
            self.times[r] = self.times[r] + self.time_increment(r, n)
            self._sample_crossed(r)
        return n * active.size
