"""The reaction-type-partitioned CA (paper section 5, "another approach").

The non-overlap rule forces ``|P|`` chunks proportional to the pattern
size of the *union* of all reaction types — 5 chunks for the
CO-oxidation model.  Partitioning the product ``Omega x T`` relaxes
this: the reaction-type set is split into orientation-pure subsets
``T_j`` (Table II; see :mod:`repro.partition.typesplit`), and for a
*single* pattern orientation a 2-chunk checkerboard partition already
satisfies non-overlap.  More concurrency (``N/2`` sites at once instead
of ``N/5``), less work per chunk.

The algorithm (a generalisation of Kortlüke's simulation scheme)::

    for each step
        for |T| times
            select Tj in T with probability K_Tj / K;
            select a reaction type from Tj with probability ki / k_Tj;
            select Pi in P
            for each site s in Pi
                1. check if the reaction is enabled at s;
                2. if it is, execute it;
                3. advance the time;

Each inner sweep applies *one* oriented reaction type to *every* site
of one chunk simultaneously
(:func:`repro.core.kernels.execute_type_everywhere`).  With the
2-chunk checkerboard, ``|T_j| = 2`` sweeps of ``N/2`` sites each give
``N`` trials per step — one MC step, directly comparable with RSM and
PNDCA.
"""

from __future__ import annotations

import numpy as np

from ..core.model import Model
from ..dmc.base import SimulatorBase
from ..partition.partition import Partition
from ..partition.tilings import checkerboard
from ..partition.typesplit import TypeSplit, split_by_orientation

__all__ = ["TypePartitionedCA", "validate_partition_for_single_types"]


def validate_partition_for_single_types(partition: Partition, model: Model) -> None:
    """Check the non-overlap rule *per individual reaction type*.

    The type-partitioned algorithm executes one reaction type at a
    time, so the partition only needs to separate sites conflicting
    under a *single* type's neighborhood (a much weaker condition than
    the all-types rule — the checkerboard passes it for every
    nearest-neighbour pair pattern).  Raises ``ValueError`` (``SR005``)
    naming the offending type and a counterexample on failure.
    """
    for rt in model.reaction_types:
        single = Model(model.species, [rt], name=rt.name)
        if not partition.is_conflict_free(single):
            c = partition.find_conflicts(single, limit=1)[0]
            raise ValueError(
                f"[SR005] partition {partition.name!r} is not conflict-free "
                f"for single type {rt.name!r}: {c.describe()}"
            )


class TypePartitionedCA(SimulatorBase):
    """CA with a partition of ``Omega x T`` (Kortlüke-style algorithm).

    Parameters (beyond :class:`~repro.dmc.base.SimulatorBase`)
    ----------
    type_split:
        The subsets ``T_j``; defaults to
        :func:`~repro.partition.typesplit.split_by_orientation` of the
        model (Table II for the CO-oxidation model).
    partition:
        Site partition used for every subset; defaults to the 2-chunk
        checkerboard (Fig. 6).  Validated per single type on
        construction.
    """

    algorithm = "TypePartCA"

    def __init__(
        self,
        *args,
        type_split: TypeSplit | None = None,
        partition: Partition | None = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.type_split = type_split or split_by_orientation(self.model)
        if self.type_split.model is not self.model:
            raise ValueError("type split was built for a different model")
        self.partition = partition or checkerboard(self.lattice)
        if self.partition.lattice != self.lattice:
            raise ValueError("partition belongs to a different lattice")
        validate_partition_for_single_types(self.partition, self.model)
        self.algorithm = (
            f"TypePartCA[|T|={self.type_split.n_subsets},m={self.partition.m}]"
        )

    def _step_block(self, until: float) -> int:
        comp = self.compiled
        split = self.type_split
        p = self.partition
        trials = 0
        for _ in range(split.n_subsets):
            j = int(
                np.searchsorted(split.subset_cum, self.rng.random(), side="right")
            )
            sub = split.subsets[j]
            k = int(np.searchsorted(sub.cum, self.rng.random(), side="right"))
            t_idx = sub.type_indices[k]
            i = int(self.rng.integers(0, p.m))
            chunk = p.chunks[i]
            n_exec = self.kernels.execute_type_everywhere(
                self.state.array, comp, t_idx, chunk
            )
            self.executed_per_type[t_idx] += n_exec
            self.n_trials += chunk.size
            trials += chunk.size
            self.time += self.time_increment(chunk.size)
            m = self.metrics
            if m.enabled:
                # every site of the chunk attempts the one selected type
                self._attempted_per_type[t_idx] += chunk.size
                m.inc("typepart.sweeps")
                m.observe("typepart.sweep.size", chunk.size)
                if chunk.size:
                    m.observe("typepart.sweep.utilisation", n_exec / chunk.size)
            self.tracer.on_chunk(i, chunk.size, self.time)
            self._notify()
        return trials
