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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..core.lattice import Lattice, Offset
from ..core.model import Model

if TYPE_CHECKING:  # pragma: no cover
    from ..lint.offsets import Conflict

__all__ = ["Partition", "TilingSpec", "conflict_displacements"]


@dataclass(frozen=True)
class TilingSpec:
    """Construction metadata of a modular tiling partition.

    Chunk membership is the residue class ``(coeffs . x) mod m`` of the
    site coordinates.  Partitions carrying this metadata (attached by
    :func:`repro.partition.tilings.modular_tiling`) are eligible for
    the *symbolic* race detector of :mod:`repro.lint.partition_lint`,
    which decides conflict-freedom by residue arithmetic instead of
    enumerating lattice sites.
    """

    m: int
    coeffs: tuple[int, ...]


def conflict_displacements(
    neighborhood: Iterable[Offset],
) -> list[Offset]:
    """Displacements ``d != 0`` such that sites ``s`` and ``s + d`` conflict.

    Two sites conflict precisely when their (union) neighborhoods
    intersect: ``(s + a) == (t + b)`` for offsets ``a, b`` in the
    neighborhood, i.e. ``t - s  in  { a - b }``.  The returned list is
    the difference set of the neighborhood, without the zero vector.
    """
    offs = [tuple(o) for o in neighborhood]
    if not offs:
        raise ValueError("empty neighborhood")
    out: set[Offset] = set()
    for a in offs:
        for b in offs:
            d = tuple(x - y for x, y in zip(a, b))
            if any(d):
                out.add(d)
    return sorted(out)


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
    conflict_free_for:
        Set of model names this partition has been *validated*
        conflict-free for (see :meth:`validate_conflict_free`).
        Simulators use :meth:`is_conflict_free` to decide between the
        simultaneous (vectorised / parallel) and the sequential kernel.
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
        self.conflict_free_for: set[str] = set()
        #: modular-tiling construction metadata, when known (enables the
        #: symbolic race detector of repro.lint)
        self.tiling: TilingSpec | None = None

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
    def find_conflicts(self, model: Model, limit: int = 16) -> "list[Conflict]":
        """All non-overlap-rule violations, as attributed counterexamples.

        Returns at most ``limit`` :class:`~repro.lint.offsets.Conflict`
        records, each naming the site pair, the chunk, the reaction pair
        anchored there and the overlapping lattice cell; an empty list
        means the partition is conflict-free for the model.

        Partitions carrying :class:`TilingSpec` metadata delegate to the
        *symbolic* detector (residue + borrow analysis, ``O(|D|)``
        arithmetic); explicit partitions fall back to the vectorised
        per-site scan (``O(N * |D|)``).  Either way each unordered site
        pair is reported once.

        A violation found here surfaces through the lint layer as
        ``SR003`` (or ``SR001``/``SR002`` for tiling-level conflicts);
        the full registry lives in
        :data:`repro.lint.diagnostics.CODES` and is printed by
        ``python -m repro lint --list-codes``.
        """
        from ..lint.offsets import Conflict, conflict_witnesses

        lat = self.lattice
        if self.tiling is not None:
            from ..lint.partition_lint import tiling_conflicts_on_shape

            labels = self.chunk_of()
            out = []
            for c in tiling_conflicts_on_shape(
                model, self.tiling.m, self.tiling.coeffs, lat.shape, limit=limit
            ):
                # the symbolic detector reports the residue class; remap
                # to this partition's actual chunk index
                chunk = int(labels[lat.flat_index(c.site_s)])
                out.append(
                    Conflict(
                        site_s=c.site_s,
                        site_t=c.site_t,
                        chunk=chunk,
                        displacement=c.displacement,
                        reaction_a=c.reaction_a,
                        offset_a=c.offset_a,
                        reaction_b=c.reaction_b,
                        offset_b=c.offset_b,
                        cell=c.cell,
                    )
                )
            return out

        witnesses = conflict_witnesses(model)
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
                w = witnesses[d]
                site_s = lat.coords(s)
                cell = lat.wrap(tuple(x + a for x, a in zip(site_s, w.offset_a)))
                out.append(
                    Conflict(
                        site_s=site_s,
                        site_t=lat.coords(t),
                        chunk=int(labels[s]),
                        displacement=d,
                        reaction_a=w.reaction_a,
                        offset_a=w.offset_a,
                        reaction_b=w.reaction_b,
                        offset_b=w.offset_b,
                        cell=cell,
                    )
                )
                if len(out) >= limit:
                    return out
        return out

    def check_conflict_free(self, model: Model) -> tuple[bool, str]:
        """Check the non-overlap rule for a model; returns (ok, reason).

        On failure the reason lists *all* conflicts found up to a
        bounded report (16 counterexamples), each naming the site pair,
        the reaction pair and the overlapping cell — not just the first
        offending displacement.  Tiling-backed partitions are decided
        symbolically (no site enumeration); explicit partitions cost
        ``O(N * |D|)`` where ``|D|`` is the displacement difference set.

        The lint-layer equivalent is diagnostic code ``SR003`` (see
        :data:`repro.lint.diagnostics.CODES` for the complete registry
        and ``python -m repro lint --list-codes`` to print it).
        """
        conflicts = self.find_conflicts(model, limit=16)
        if not conflicts:
            return True, "ok"
        lines = [c.describe() for c in conflicts]
        suffix = "" if len(conflicts) < 16 else " (report truncated at 16)"
        return False, f"{len(conflicts)} conflict(s){suffix}: " + "; ".join(lines)

    def validate_conflict_free(self, model: Model) -> "Partition":
        """Assert the non-overlap rule holds; marks the partition validated.

        Raises ``ValueError`` with the first offending site pair
        otherwise.  Returns self for chaining.
        """
        ok, reason = self.check_conflict_free(model)
        if not ok:
            raise ValueError(f"{self!r} violates the non-overlap rule: {reason}")
        self.conflict_free_for.add(model.name)
        return self

    def is_conflict_free(self, model: Model) -> bool:
        """Has this partition been validated conflict-free for the model?"""
        return model.name in self.conflict_free_for

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
