"""Partitions of the lattice into conflict-free chunks.

A *partition* ``P`` (paper, section 5) is a collection of disjoint
subsets of the lattice — *chunks* ``P_i`` — that together cover all of
``Omega``.  The generalisation beyond contiguous blocks is the paper's
key move: chunks may contain *non-adjacent* sites, chosen so that
reactions anchored at distinct sites of the same chunk can never
conflict:

    for all s != t in P_i and all reaction types Rt, Rt':
        Nb_Rt(s)  ∩  Nb_Rt'(t)  =  ∅            (the non-overlap rule)

All sites of a chunk can then be simulated simultaneously.  Since the
degree of parallelism is ``~N/|P|``, one wants as *few* chunks as
possible (see :mod:`repro.partition.coloring` for optimality bounds
and :mod:`repro.partition.tilings` for the constructions used in the
paper's figures).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..core.lattice import Lattice, Offset
from ..core.model import Model
from .conflicts import (
    Conflict,
    conflict_at,
    conflict_key,
    model_witnesses,
    tiling_conflicts_on_shape,
)

__all__ = ["Partition", "TilingSpec"]


@dataclass(frozen=True)
class TilingSpec:
    """Construction metadata of a modular tiling partition.

    Chunk membership is the residue class ``(coeffs . x) mod m`` of the
    site coordinates.  Partitions carrying this metadata (attached by
    :func:`repro.partition.tilings.modular_tiling`) are decided by the
    *symbolic* borrow analysis of :mod:`repro.partition.conflicts`
    instead of a scan over the lattice sites.
    """

    m: int
    coeffs: tuple[int, ...]


class Partition:
    """A partition of the lattice sites into chunks.

    Parameters
    ----------
    lattice:
        The lattice being partitioned.
    chunks:
        Sequence of flat-index arrays.  They must be disjoint and cover
        the lattice (validated on construction).
    name:
        Optional label for reports.

    Attributes
    ----------
    m:
        Number of chunks, the paper's ``|P|``.
    tiling:
        :class:`TilingSpec` of a modular tiling, else ``None``.
    """

    def __init__(self, lattice: Lattice, chunks: Sequence[np.ndarray], name: str = ""):
        self.lattice = lattice
        self.chunks: list[np.ndarray] = []
        total = 0
        for c in chunks:
            arr = np.asarray(c, dtype=np.intp).ravel()
            arr = np.sort(arr)
            arr.setflags(write=False)
            self.chunks.append(arr)
            total += arr.size
        if total != lattice.n_sites:
            raise ValueError(
                f"chunks contain {total} sites, lattice has {lattice.n_sites}"
            )
        # every site exactly once: in range, then one bincount (the
        # engines trust chunk sites from here on, see repro.core.contracts);
        # total == n_sites >= 1, so there is at least one site
        seen = np.concatenate(self.chunks)
        n = lattice.n_sites
        if seen.min() < 0 or seen.max() >= n or not (
            np.bincount(seen, minlength=n) == 1
        ).all():
            raise ValueError("chunks are not disjoint or do not cover the lattice")
        if any(c.size == 0 for c in self.chunks):
            raise ValueError("empty chunks are not allowed")
        self.name = name or f"partition(m={len(self.chunks)})"
        self.tiling: TilingSpec | None = None
        #: is_conflict_free verdicts, keyed by the conflict difference set
        self._verdicts: dict[frozenset[Offset], bool] = {}

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of chunks ``|P|``."""
        return len(self.chunks)

    @property
    def sizes(self) -> np.ndarray:
        """Chunk sizes ``|P_i|``."""
        return np.array([c.size for c in self.chunks], dtype=np.intp)

    def __len__(self) -> int:
        return len(self.chunks)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.chunks[i]

    def __repr__(self) -> str:
        return f"Partition({self.name!r}, m={self.m}, lattice={self.lattice!r})"

    def chunk_of(self) -> np.ndarray:
        """Per-site chunk label (length ``N`` array)."""
        lab = np.empty(self.lattice.n_sites, dtype=np.intp)
        for i, c in enumerate(self.chunks):
            lab[c] = i
        return lab

    def grid_labels(self) -> np.ndarray:
        """Chunk labels reshaped to the lattice (for rendering Fig. 4)."""
        return self.lattice.as_grid(self.chunk_of())

    # ------------------------------------------------------------------
    # the non-overlap rule
    # ------------------------------------------------------------------
    def find_conflicts(self, model: Model, limit: int = 16) -> list[Conflict]:
        """All non-overlap-rule violations, as attributed counterexamples.

        Returns at most ``limit`` :class:`~repro.partition.conflicts.Conflict`
        records, each naming the site pair, the chunk, the reaction pair
        anchored there and the overlapping lattice cell; an empty list
        means the partition is conflict-free for the model.

        Partitions carrying :class:`TilingSpec` metadata are decided
        *symbolically* (residue + borrow analysis, ``O(|D|)``
        arithmetic); explicit partitions by the vectorised per-site scan
        (``O(N * |D|)``).  Either way each unordered site pair is
        reported once.  :mod:`repro.lint` reports the findings as
        ``SR001``/``SR002`` (tilings) or ``SR003`` (explicit partitions).
        """
        lat = self.lattice
        if self.tiling is not None:
            found = tiling_conflicts_on_shape(
                model, self.tiling.m, self.tiling.coeffs, lat.shape, limit=limit
            )
            if not found:
                return []
            # the borrow analysis names the residue class; remap to this
            # partition's chunk index
            labels = self.chunk_of()
            return [
                replace(c, chunk=int(labels[lat.flat_index(c.site_s)]))
                for c in found
            ]

        witnesses = model_witnesses(model)
        labels = self.chunk_of()
        out = []
        seen_pairs: set[frozenset[int]] = set()
        for d in sorted(witnesses):
            nbr = lat.neighbor_map(d)
            clash = labels == labels[nbr]
            for s in np.flatnonzero(clash):
                s = int(s)
                t = int(nbr[s])
                if s == t:
                    # the displacement wraps onto the site itself
                    # (lattice smaller than twice the pattern) — not a
                    # two-site conflict
                    break
                pair = frozenset((s, t))
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                out.append(conflict_at(
                    lat.coords(s), d, witnesses[d], int(labels[s]), lat.shape
                ))
                if len(out) >= limit:
                    return out
        return out

    def is_conflict_free(self, model: Model) -> bool:
        """Does the non-overlap rule hold for the model?

        Decided by :meth:`find_conflicts` on the first call and cached
        under the model's conflict difference set
        (:func:`~repro.partition.conflicts.conflict_key`), the one thing
        the answer depends on.  Simulators use it to choose between the
        simultaneous (vectorised / parallel) and the sequential kernel;
        the raising gate is :func:`repro.lint.preflight_partition`.
        """
        key = conflict_key(model)
        ok = self._verdicts.get(key)
        if ok is None:
            ok = self._verdicts[key] = not self.find_conflicts(model, limit=1)
        return ok

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def single_chunk(cls, lattice: Lattice) -> "Partition":
        """The trivial partition ``m = 1`` (whole lattice in one chunk).

        Not conflict-free for any model with multi-site patterns; used
        for the L-PNDCA limit that reduces to RSM.
        """
        return cls(lattice, [lattice.all_flat()], name="single-chunk")

    @classmethod
    def singletons(cls, lattice: Lattice) -> "Partition":
        """The finest partition ``m = N`` (one site per chunk).

        Trivially conflict-free (chunks have no site pairs); the other
        L-PNDCA limit that reduces to RSM.
        """
        p = cls(
            lattice,
            list(np.arange(lattice.n_sites, dtype=np.intp).reshape(-1, 1)),
            name="singletons",
        )
        return p

    @classmethod
    def from_labels(cls, lattice: Lattice, labels: np.ndarray, name: str = "") -> "Partition":
        """Build from a per-site integer label array (flat or grid shaped)."""
        lab = np.asarray(labels).ravel()
        if lab.size != lattice.n_sites:
            raise ValueError("label array does not match the lattice")
        values = np.unique(lab)
        chunks = [np.flatnonzero(lab == v) for v in values]
        return cls(lattice, chunks, name=name)
