"""The Partitioned NDCA (PNDCA) — the paper's central algorithm.

Section 5::

    for each step
        choose a partition P;
        for all Pi in P
            for each site s in Pi
                1. select a reaction type with probability ki/K;
                2. check if the reaction is enabled at s;
                3. if it is, execute it;
                4. advance the time;

Because the partition's chunks satisfy the non-overlap rule, *all
sites of a chunk can be updated simultaneously* — the source of
parallelism.  In this package a chunk update is a single call of the
backend's bound visit (:meth:`repro.backends.Backend.bind_visit`): the
vectorised batch (:func:`repro.core.kernels.run_trials_batch`) under
``numpy``, one C call under ``cnative``; the
multiprocessing executor (:mod:`repro.parallel.executor`) distributes
the same batches over worker processes.  Independent replicas are
separate runs: a ``[sweep] seed`` grid, or
:func:`repro.analysis.statistics.run_ensemble` in-process.

The order in which chunks are visited matters for accuracy (it
introduces correlations in site occupancy); the paper lists four
*chunk-selection strategies*, all implemented here:

``"ordered"``
    all chunks in a predefined order (paper's option 1);
``"random-order"``
    all chunks, freshly shuffled each step (option 2; this is the
    Fig. 10 schedule);
``"random"``
    ``|P|`` independent uniform chunk draws with replacement per step —
    a chunk is selected with probability ``1/|P|`` per draw (option 3;
    some chunks may be visited twice in a step, others not at all);
``"weighted"``
    like ``"random"`` but each draw weighs chunks by the total rate of
    currently *enabled* reactions inside them (option 4; the weights
    are recomputed before every draw, which costs one enabling scan of
    the lattice per draw — accuracy at the price of throughput, see
    the strategy-ablation benchmark).
"""

from __future__ import annotations

import numpy as np

from ..dmc.base import SimulatorBase
from ..partition.partition import Partition
from ..taxonomy import STRATEGIES, check_strategy

__all__ = ["PNDCA", "STRATEGIES"]


class PNDCA(SimulatorBase):
    """Partitioned NDCA: simultaneous conflict-free chunk updates.

    Parameters (beyond :class:`~repro.dmc.base.SimulatorBase`)
    ----------
    partition:
        A :class:`Partition` of the lattice.  If it is conflict-free for
        the model (:meth:`Partition.is_conflict_free`), chunk updates
        run through the simultaneous vectorised kernel; otherwise they
        fall back to the sequential kernel (with a warning attribute,
        see ``uses_sequential_fallback``) — the semantics of the
        algorithm are identical either way.
    strategy:
        Chunk-selection strategy, one of :data:`STRATEGIES`.
    validate:
        When True (default), gate the partition with
        :func:`repro.lint.preflight_partition` at construction instead
        of silently falling back.
    """

    algorithm = "PNDCA"

    def __init__(
        self,
        *args,
        partition: Partition | list[Partition],
        strategy: str = "random-order",
        partition_schedule: str = "cycle",
        validate: bool = True,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        check_strategy(strategy)
        partitions = [partition] if isinstance(partition, Partition) else list(partition)
        if not partitions:
            raise ValueError("need at least one partition")
        if partition_schedule not in ("cycle", "random"):
            raise ValueError(f"unknown partition schedule {partition_schedule!r}")
        if any(p.lattice != self.lattice for p in partitions):
            raise ValueError("partition belongs to a different lattice")
        if validate:
            from ..lint.engine import preflight_partition

            for p in partitions:
                preflight_partition(p, self.model)
        self.partitions = partitions
        self.partition_schedule = partition_schedule
        self._step_no = 0
        self.partition = partitions[0]
        self._partition_no = 0
        #: per-site chunk labels by partition number (weighted strategy)
        self._chunk_labels: dict[int, np.ndarray] = {}
        self.strategy = strategy
        self.uses_sequential_fallback = any(
            not p.is_conflict_free(self.model) for p in partitions
        )
        # the fallback visits a chunk's sites in storage order (the
        # paper's pseudo-code does not prescribe one) and draws the same
        # randoms, so the two kernels agree on conflict-free chunks
        self._visit_kernel = (
            "run_trials_sequential" if self.uses_sequential_fallback
            else "run_trials_batch"
        )
        self.algorithm = f"PNDCA[{strategy},m={self.partition.m}]"
        if len(partitions) > 1:
            self.algorithm = (
                f"PNDCA[{strategy},m={self.partition.m},"
                f"{len(partitions)} partitions/{partition_schedule}]"
            )

    def _extra_checkpoint_state(self) -> dict:
        """The partition-cycle counter (drives the ``"cycle"`` schedule)."""
        return {"step_no": self._step_no}

    def _restore_extra(self, extra: dict) -> None:
        """Restore the partition-cycle counter."""
        self._step_no = int(extra.get("step_no", 0))

    def _choose_partition(self) -> Partition:
        """The paper's 'choose a partition P' step.

        With several partitions supplied, rotate through them
        (``"cycle"``) or pick one uniformly at random per step
        (``"random"``) — alternating partitions removes the residual
        anisotropy a single fixed tiling imprints on the correlations.
        """
        if len(self.partitions) == 1:
            return self.partitions[0]
        if self.partition_schedule == "cycle":
            self._partition_no = self._step_no % len(self.partitions)
        else:
            self._partition_no = int(self.rng.integers(0, len(self.partitions)))
        self.partition = p = self.partitions[self._partition_no]
        return p

    # ------------------------------------------------------------------
    def _visit_chunk(self, chunk: np.ndarray, index: int = -1) -> None:
        """One trial per site of the chunk, then advance the time.

        ``index`` is the chunk's place in the current partition (-1: a
        chunk of no partition); with it the visit takes the chunk's
        address once per bind.
        """
        key = None if index < 0 else (self._partition_no, index)
        executed = self._visit_sites(chunk, key)
        self.n_trials += chunk.size
        self.time += self.time_increment(chunk.size)
        m = self.metrics
        if m.enabled:
            m.inc("pndca.chunk.visits")
            m.observe("pndca.chunk.size", chunk.size)
            m.observe("pndca.chunk.occupancy", chunk.size / self.lattice.n_sites)
            if chunk.size:
                m.observe("pndca.chunk.utilisation", executed / chunk.size)
        self.tracer.on_chunk(index, chunk.size, self.time)
        self._notify()

    def _chunk_weights(self) -> np.ndarray:
        """Total enabled rate per chunk (for the weighted strategy).

        One whole-lattice enabled mask per type, its anchors counted
        per chunk; each chunk's sum runs in type order from ``0.0``, as
        :meth:`~repro.core.compiled.CompiledModel.enabled_rate_total`
        sums, so the weights equal that method's per-chunk totals bit
        for bit.
        """
        labels = self._chunk_labels.get(self._partition_no)
        if labels is None:
            labels = self._chunk_labels[self._partition_no] = self.partition.chunk_of()
        m = self.partition.m
        comp = self.compiled
        state = self.state.array
        weights = np.zeros(m)
        for i, ct in enumerate(comp.types):
            n = np.bincount(labels[comp.enabled_mask(state, i)], minlength=m)
            weights += ct.rate * n
        return weights

    def _step_block(self, until: float) -> int:
        p = self._choose_partition()
        self._step_no += 1
        m = p.m
        if self.strategy == "ordered":
            for i in range(m):
                self._visit_chunk(p.chunks[i], i)
        elif self.strategy == "random-order":
            for i in self.rng.permutation(m):
                self._visit_chunk(p.chunks[int(i)], int(i))
        elif self.strategy == "random":
            for _ in range(m):
                i = int(self.rng.integers(0, m))
                self._visit_chunk(p.chunks[i], i)
        else:  # weighted
            for _ in range(m):
                w = self._chunk_weights()
                total = w.sum()
                if total <= 0:
                    # nothing enabled anywhere: fall back to uniform
                    i = int(self.rng.integers(0, m))
                else:
                    i = int(self.rng.choice(m, p=w / total))
                self._visit_chunk(p.chunks[i], i)
        return self.lattice.n_sites
