"""L-PNDCA: the parameterised family interpolating PNDCA and RSM.

The general structure (paper, section 5, "opportunities for
improvements")::

    for each step
        choose a partition P;
        set trials to 0;
        repeat
            select Pi in P (probability |Pi|/|P|);
            select L, 1 <= L <= (N - trials);
            set trials to trials + L;
            for L sites in Pi
                1. select a reaction type with probability ki/K;
                2. check if the reaction is enabled at the site;
                3. if it is, execute it;
                4. advance the time;
        until trials = N

Sites within the selected chunk are drawn randomly *with replacement*
(matching RSM's site selection); the batched kernel handles repeated
sites through occurrence rounds, preserving exact sequential
semantics.

Two notes on the paper's notation:

* "probability |Pi|/|P|" is read as *size-proportional* selection,
  ``|Pi| / N`` (the expression as printed does not normalise); for
  equal chunks this is uniform.  ``chunk_selection="uniform"`` and
  ``"random-order"`` (every chunk exactly once per step, shuffled —
  the Fig. 10 schedule) are also available.
* ``L`` is capped at the remaining trial budget ``N - trials`` of the
  step, as in the pseudo-code.  ``L="chunk"`` uses ``L = |Pi|`` (the
  Fig. 10 parameterisation ``L = N^2/m``).

Limiting cases (paper, Fig. 8):

* ``m = 1`` (single chunk), ``L = N``: every step is N random trials
  on the whole lattice — exactly RSM.  (The single chunk is not
  conflict-free, so the sequential kernel is used automatically.)
* ``m = N`` (singletons), ``L = 1``: chunk selection = site selection
  — again exactly RSM.
"""

from __future__ import annotations

import numpy as np

from ..dmc.base import SimulatorBase
from ..partition.partition import Partition
from ..taxonomy import check_chunk_selection, check_L

__all__ = ["LPNDCA"]


class LPNDCA(SimulatorBase):
    """The L-PNDCA algorithm.

    Parameters (beyond :class:`~repro.dmc.base.SimulatorBase`)
    ----------
    partition:
        The partition ``P``.  Non-conflict-free partitions (e.g. the
        single chunk) are allowed when ``require_conflict_free=False``
        and execute through the sequential kernel.
    L:
        Trials per chunk selection: a positive int, or ``"chunk"`` for
        ``L = |Pi|``.
    chunk_selection:
        ``"size-proportional"`` (default; the paper's repeat-loop),
        ``"uniform"``, ``"random-order"`` (each chunk exactly once per
        step, shuffled; Fig. 10) or ``"ordered"``.
    require_conflict_free:
        When True (default), gate the partition with
        :func:`repro.lint.preflight_partition` (a conflict raises
        ``LintError``); set False to allow the RSM-limit partitions.
    """

    algorithm = "L-PNDCA"

    def __init__(
        self,
        *args,
        partition: Partition,
        L: int | str = 1,
        chunk_selection: str = "size-proportional",
        require_conflict_free: bool = True,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if partition.lattice != self.lattice:
            raise ValueError("partition belongs to a different lattice")
        check_chunk_selection(chunk_selection)
        check_L(L)
        if require_conflict_free:
            from ..lint.engine import preflight_partition

            preflight_partition(partition, self.model)
        self.partition = partition
        self.L = L
        self.chunk_selection = chunk_selection
        self.uses_sequential_fallback = not partition.is_conflict_free(self.model)
        sizes = partition.sizes
        self._equal_sizes = bool(np.all(sizes == sizes[0]))
        self._size_cum = np.cumsum(sizes) / sizes.sum()
        # Fast path: L = 1 with size-proportional chunk selection draws,
        # per trial, a chunk with probability |Pi|/N and then a uniform
        # site inside it — i.e. a uniformly random lattice site.  The
        # whole step is then N independent single-site trials (exactly
        # RSM's selection process) and can be executed as one block
        # through the sequential kernel instead of N python-level chunk
        # visits.  Uniform selection coincides when chunks are equal.
        self._rsm_equivalent = (
            (L == 1)
            and (
                chunk_selection == "size-proportional"
                or (chunk_selection == "uniform" and self._equal_sizes)
            )
        )
        self._visit_kernel = (
            "run_trials_sequential"
            if self._rsm_equivalent or self.uses_sequential_fallback
            else "run_trials_batch_with_duplicates"
        )
        self.algorithm = f"L-PNDCA[m={partition.m},L={L},{chunk_selection}]"

    # ------------------------------------------------------------------
    def _visit_trials(self, chunk: np.ndarray, n_trials: int, index: int = -1) -> None:
        """``n_trials`` random trials (with replacement) inside a chunk."""
        if chunk.size == 1:
            sites = np.repeat(chunk, n_trials)
        else:
            sites = chunk[self.rng.integers(0, chunk.size, size=n_trials)]
        executed = self._visit_sites(sites)
        self.n_trials += n_trials
        self.time += self.time_increment(n_trials)
        m = self.metrics
        if m.enabled:
            m.inc("lpndca.chunk.visits")
            m.observe("lpndca.visit.L", n_trials)
            if n_trials:
                m.observe("lpndca.visit.utilisation", executed / n_trials)
        self.tracer.on_chunk(index, n_trials, self.time)
        self._notify()

    def _choose_chunk(self) -> int:
        if self.partition.m == 1:
            return 0  # no choice to make (and no random stream consumed)
        if self.chunk_selection == "size-proportional" and not self._equal_sizes:
            # inverse-CDF draw: O(log m) instead of rng.choice's O(m)
            return int(
                np.searchsorted(self._size_cum, self.rng.random(), side="right")
            )
        return int(self.rng.integers(0, self.partition.m))

    def _step_block(self, until: float) -> int:
        p = self.partition
        n = self.lattice.n_sites
        if self._rsm_equivalent:
            self._visit_sites(self.rng.integers(0, n, size=n).astype(np.intp))
            self.n_trials += n
            self.time += self.time_increment(n)
            self._notify()
            return n
        if self.chunk_selection in ("random-order", "ordered"):
            order = (
                self.rng.permutation(p.m)
                if self.chunk_selection == "random-order"
                else np.arange(p.m)
            )
            budget = n
            for i in order:
                chunk = p.chunks[int(i)]
                L = chunk.size if self.L == "chunk" else min(int(self.L), budget)
                L = min(L, budget)
                if L <= 0:
                    break
                self._visit_trials(chunk, L, int(i))
                budget -= L
            return n - budget if budget < n else n
        # repeat-loop selections
        trials = 0
        while trials < n:
            i = self._choose_chunk()
            chunk = p.chunks[i]
            L = chunk.size if self.L == "chunk" else int(self.L)
            L = min(L, n - trials)
            self._visit_trials(chunk, L, i)
            trials += L
        return n
