"""Vectorized multi-replica PNDCA — the natural fit for stacking.

A PNDCA chunk visit is already a conflict-free simultaneous batch;
with R replicas sharing the *same chunk schedule* the batches simply
stack: one :func:`repro.core.kernels.run_trials_stacked` call executes
``R * |chunk|`` trials at once.  This is where the ensemble engine's
speedup is largest — no conflict scanning at all, the partition's
non-overlap rule already guarantees commutation.

The schedule is shared across replicas by construction; randomness in
the schedule (``"random-order"``/``"random"`` strategies, the
``"random"`` partition schedule) therefore comes from a *dedicated*
schedule generator, not from the replicas' streams.  With
``strategy="ordered"`` and ``partition_schedule="cycle"`` the schedule
is deterministic and consumes no randomness, making replica ``r``
bit-identical to a sequential :class:`repro.ca.pndca.PNDCA` with the
same configuration and seed (the differential tests assert this).
The ``"weighted"`` strategy is intentionally unsupported: its chunk
choice depends on per-replica state, so no shared schedule exists.
"""

from __future__ import annotations

import numpy as np

from ..core.contracts import kernel
from ..core.rng import make_rng, types_from_uniforms
from ..partition.partition import Partition
from .base import EnsembleBase

__all__ = ["EnsemblePNDCA", "ENSEMBLE_STRATEGIES"]

ENSEMBLE_STRATEGIES = ("ordered", "random-order", "random")


class EnsemblePNDCA(EnsembleBase):
    """Stacked partitioned NDCA: R replicas per conflict-free chunk batch.

    Parameters (beyond :class:`~repro.ensemble.base.EnsembleBase`)
    ----------
    partition:
        A :class:`Partition` (or list rotated per step).  Must be — or
        validate as — conflict-free for the model: unlike the
        sequential PNDCA there is no sequential fallback, the stacked
        kernel is only correct on conflict-free chunks.
    strategy:
        Chunk-selection strategy, one of :data:`ENSEMBLE_STRATEGIES`
        (``"weighted"`` has no shared-schedule analogue).
    partition_schedule:
        ``"cycle"`` or ``"random"`` over multiple partitions.
    schedule_seed:
        Seed of the dedicated schedule generator (shared by all
        replicas; irrelevant for the deterministic
        ordered/cycle configuration).
    """

    algorithm = "PNDCA"

    def __init__(
        self,
        *args,
        partition: Partition | list[Partition],
        strategy: str = "ordered",
        partition_schedule: str = "cycle",
        schedule_seed: int | None = 0,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if strategy not in ENSEMBLE_STRATEGIES:
            raise ValueError(
                f"unknown ensemble strategy {strategy!r}; choose from "
                f"{ENSEMBLE_STRATEGIES} ('weighted' depends on per-replica "
                f"state and cannot share a schedule)"
            )
        if partition_schedule not in ("cycle", "random"):
            raise ValueError(f"unknown partition schedule {partition_schedule!r}")
        partitions = (
            [partition] if isinstance(partition, Partition) else list(partition)
        )
        if not partitions:
            raise ValueError("need at least one partition")
        from ..lint.engine import preflight_partition

        for p in partitions:
            if p.lattice != self.lattice:
                raise ValueError("partition belongs to a different lattice")
            preflight_partition(p, self.model)
        self.partitions = partitions
        self.partition = partitions[0]
        self.strategy = strategy
        self.partition_schedule = partition_schedule
        self.schedule_rng = make_rng(schedule_seed)
        self._step_no = 0
        self._stream_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.algorithm = f"PNDCA[{strategy},m={self.partition.m}]"
        if len(partitions) > 1:
            self.algorithm = (
                f"PNDCA[{strategy},m={self.partition.m},"
                f"{len(partitions)} partitions/{partition_schedule}]"
            )

    def _extra_checkpoint_state(self) -> dict:
        """Cycle counter plus the shared schedule generator's state."""
        from ..resilience.checkpoint import rng_state

        return {
            "step_no": self._step_no,
            "schedule_rng": rng_state(self.schedule_rng),
        }

    def _restore_extra(self, extra: dict) -> None:
        """Restore the cycle counter and the schedule generator."""
        from ..resilience.checkpoint import restore_rng_state

        self._step_no = int(extra.get("step_no", 0))
        if "schedule_rng" in extra:
            restore_rng_state(self.schedule_rng, extra["schedule_rng"])

    @kernel(writes=("self.partition",))
    def _choose_partition(self) -> Partition:
        """Shared 'choose a partition P' step (one choice for all replicas)."""
        if len(self.partitions) == 1:
            return self.partitions[0]
        if self.partition_schedule == "cycle":
            p = self.partitions[self._step_no % len(self.partitions)]
        else:
            p = self.partitions[
                int(self.schedule_rng.integers(0, len(self.partitions)))
            ]
        self.partition = p
        return p

    # ------------------------------------------------------------------
    def _chunk_streams(
        self, chunk: np.ndarray, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Constant (reps, sites) streams of one chunk visit, cached.

        For the common all-replicas-active case the replica/site columns
        of a chunk batch never change between visits; rebuilding them
        (repeat + tile) per visit is measurable overhead at small chunk
        sizes.
        """
        if active.size != self.n_replicas:
            return np.repeat(active.astype(np.intp), chunk.size), np.tile(
                chunk, active.size
            )
        key = id(chunk)  # chunks are read-only arrays owned by the partition
        cached = self._stream_cache.get(key)
        if cached is None:
            cached = (
                np.repeat(np.arange(self.n_replicas, dtype=np.intp), chunk.size),
                np.tile(chunk, self.n_replicas),
            )
            self._stream_cache[key] = cached
        return cached

    @kernel(
        writes=(
            "self.states",
            "self.executed_per_type",
            "self.n_trials",
            "self.times",
            "self._attempted_per_type",
        ),
    )
    def _visit_chunk(
        self, chunk: np.ndarray, active: np.ndarray, index: int = -1
    ) -> None:
        """One trial per chunk site per active replica, in one batch."""
        comp = self.compiled
        m = self.metrics
        c = chunk.size
        a = active.size
        # one uniform block per replica (the sequential draw order),
        # one shared searchsorted for the rate-weighted type selection
        u = np.empty(a * c)
        for i, r in enumerate(active):
            u[i * c : (i + 1) * c] = self.rngs[r].random(c)
        btypes = types_from_uniforms(comp.type_cum, u)
        if m.enabled:
            executed0 = int(self.executed_per_type.sum())
            self._record_attempts(btypes)
        reps, bsites = self._chunk_streams(chunk, active)
        self.kernels.run_trials_stacked(
            self.states, comp, reps, bsites, btypes,
            counts=self.executed_per_type,
        )
        for r in active:
            self.n_trials[r] += c
            self.times[r] += self.time_increment(r, c)
            self._sample_crossed(r)
        if m.enabled:
            executed = int(self.executed_per_type.sum()) - executed0
            m.inc("pndca.chunk.visits")
            m.observe("pndca.chunk.size", c)
            m.observe("pndca.chunk.occupancy", c / self.lattice.n_sites)
            if a * c:
                m.observe("pndca.chunk.utilisation", executed / (a * c))
        self.tracer.on_chunk(index, c, float(self.times.min()))

    @kernel(
        writes=(
            "self.states",
            "self.executed_per_type",
            "self.n_trials",
            "self.times",
            "self.partition",
            "self._step_no",
            "self._attempted_per_type",
        ),
    )
    def _step_block(self, until: float, active: np.ndarray) -> int:
        p = self._choose_partition()
        self._step_no += 1
        m = p.m
        if self.strategy == "ordered":
            schedule = range(m)
        elif self.strategy == "random-order":
            schedule = self.schedule_rng.permutation(m)
        else:  # random
            schedule = self.schedule_rng.integers(0, m, size=m)
        for i in schedule:
            self._visit_chunk(p.chunks[int(i)], active, int(i))
        return self.lattice.n_sites * active.size
