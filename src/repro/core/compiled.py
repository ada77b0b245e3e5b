"""Compiled models: flat numpy tables binding a model to a lattice.

Every simulator in this package (RSM, VSSM, FRM, NDCA, PNDCA,
L-PNDCA, the reaction-type-partitioned CA) performs the same two
primitive operations

* *match*  — is reaction type ``t`` enabled at anchor site ``s``?
* *apply*  — execute it (write the target pattern).

Compilation turns each reaction type into

* per-change offsets: the sites touched by type ``t`` anchored at ``s``
  are ``s + offset`` on the periodic lattice, the same pattern at every
  anchor (paper, section 2).  The compiled C tier reads these offsets
  directly as a per-type stencil and computes each touched site from
  the anchor's row and column (:mod:`repro.backends.cnative`),
* per-change neighbour index maps (``lattice.neighbor_map(offset)``),
  built from the offsets on first use, so that those sites are
  ``maps[c][s]`` for each change ``c`` — pure gathers for the numpy
  kernels and the event-driven simulators,
* ``uint8`` source/target vectors,
* a cumulative rate table for rate-weighted type selection
  (``k_i / K``).

The actual kernels (sequential trial loop, vectorised batch) live in
:mod:`repro.core.kernels`; this module owns the tables.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .contracts import kernel
from .lattice import Lattice
from .model import Model
from .rates import selection_table

__all__ = ["CompiledModel", "CompiledType"]


class CompiledType:
    """Flat tables for one reaction type on one lattice.

    Attributes
    ----------
    offsets : list[tuple[int, ...]]
        For each change, its offset from the anchor site.
    maps : list[np.ndarray]
        For each change, the length-``N`` neighbour map (``intp``),
        built from ``offsets`` on first access.
    srcs, tgts : list[int]
        Source/target species codes (plain python ints: fastest in the
        sequential hot loop).
    src_arr, tgt_arr : np.ndarray
        The same as ``uint8`` arrays for vectorised kernels.
    rate : float
        Rate constant ``k``.
    """

    __slots__ = (
        "index", "name", "offsets", "lattice", "maps", "srcs", "tgts",
        "src_arr", "tgt_arr", "rate", "n_sites",
    )

    def __init__(
        self, index: int, name: str, offsets, lattice: Lattice, srcs, tgts,
        rate: float,
    ):
        self.index = index
        self.name = name
        self.offsets = [tuple(int(o) for o in off) for off in offsets]
        self.lattice = lattice
        self.srcs = [int(s) for s in srcs]
        self.tgts = [int(t) for t in tgts]
        self.src_arr = np.array(srcs, dtype=np.uint8)
        self.tgt_arr = np.array(tgts, dtype=np.uint8)
        self.rate = float(rate)
        self.n_sites = len(self.offsets)

    def __getattr__(self, name: str):
        # only reached while the ``maps`` slot is unset: build the maps
        # once, after which reads are plain slot reads
        if name != "maps":
            raise AttributeError(name)
        self.maps = [self.lattice.neighbor_map(off) for off in self.offsets]
        return self.maps

    def __repr__(self) -> str:
        return f"CompiledType({self.index}, {self.name!r}, k={self.rate:g})"


class CompiledModel:
    """A :class:`Model` bound to a :class:`Lattice`.

    Attributes
    ----------
    model, lattice:
        The bound pair.
    types : list[CompiledType]
        One entry per reaction type, in model order.
    rates : np.ndarray
        Rate constants ``k_i``.
    total_rate : float
        ``K = sum k_i``.
    type_cum : np.ndarray
        Cumulative table such that ``searchsorted(type_cum, u, 'right')``
        selects type ``i`` with probability ``k_i / K``.
    """

    def __init__(self, model: Model, lattice: Lattice):
        if model.ndim != lattice.ndim:
            raise ValueError(
                f"model is {model.ndim}-d but lattice is {lattice.ndim}-d"
            )
        lo_hi = _pattern_extent(model)
        for extent, side in zip(lo_hi, lattice.shape):
            if extent > side:
                raise ValueError(
                    f"lattice side {side} is smaller than a reaction pattern "
                    f"extent {extent}; periodic wrapping would self-overlap"
                )
        self.model = model
        self.lattice = lattice
        self.types: list[CompiledType] = []
        for i, rt in enumerate(model.reaction_types):
            offsets = [c.offset for c in rt.changes]
            srcs = [model.species.code(c.src) for c in rt.changes]
            tgts = [model.species.code(c.tg) for c in rt.changes]
            self.types.append(
                CompiledType(i, rt.name, offsets, lattice, srcs, tgts, rt.rate)
            )
        self.rates = np.array([t.rate for t in self.types], dtype=np.float64)
        self.type_cum, self.total_rate = selection_table(self.rates)

    # ------------------------------------------------------------------
    @property
    def n_types(self) -> int:
        """Number of reaction types."""
        return len(self.types)

    @property
    def n_sites(self) -> int:
        """Number of lattice sites N."""
        return self.lattice.n_sites

    def __repr__(self) -> str:
        return f"CompiledModel({self.model.name!r} on {self.lattice!r})"

    # ------------------------------------------------------------------
    # scalar operations (used by tests and the event-driven simulators)
    # ------------------------------------------------------------------
    def is_enabled(self, state: np.ndarray, type_index: int, site: int) -> bool:
        """Does the source pattern of a type match at an anchor site?"""
        ct = self.types[type_index]
        for m, src in zip(ct.maps, ct.srcs):
            if state[m[site]] != src:
                return False
        return True

    @kernel(writes=("state",))
    def execute(self, state: np.ndarray, type_index: int, site: int) -> None:
        """Write the target pattern of a type anchored at a site."""
        ct = self.types[type_index]
        for m, tgt in zip(ct.maps, ct.tgts):
            state[m[site]] = tgt

    def enabled_types_at(self, state: np.ndarray, site: int) -> list[int]:
        """All reaction-type indices enabled at an anchor site."""
        return [i for i in range(self.n_types) if self.is_enabled(state, i, site)]

    # ------------------------------------------------------------------
    # vectorised operations
    # ------------------------------------------------------------------
    def match_sites(
        self, state: np.ndarray, type_index: int, sites: np.ndarray
    ) -> np.ndarray:
        """Boolean mask: at which of ``sites`` is the type enabled?"""
        ct = self.types[type_index]
        sites = np.asarray(sites, dtype=np.intp)
        mask = state[ct.maps[0][sites]] == ct.srcs[0]
        for m, src in zip(ct.maps[1:], ct.srcs[1:]):
            mask &= state[m[sites]] == src
        return mask

    def enabled_mask(self, state: np.ndarray, type_index: int) -> np.ndarray:
        """Boolean mask over all anchor sites: where is the type enabled?"""
        ct = self.types[type_index]
        mask = state[ct.maps[0]] == ct.srcs[0]
        for m, src in zip(ct.maps[1:], ct.srcs[1:]):
            mask &= state[m] == src
        return mask

    def enabled_anchor_sites(self, state: np.ndarray, type_index: int) -> np.ndarray:
        """Flat indices of every anchor site where the type is enabled."""
        return np.flatnonzero(self.enabled_mask(state, type_index))

    def enabled_rate_total(self, state: np.ndarray, sites: np.ndarray | None = None) -> float:
        """Sum of rate constants of all enabled reactions (optionally on a site subset).

        This is ``sum_i k_i * |enabled anchors of i|`` — the total exit
        rate of the current state in the Master Equation sense.
        """
        total = 0.0
        for i, ct in enumerate(self.types):
            if sites is None:
                n = self.enabled_anchor_sites(state, i).size
            else:
                n = int(np.count_nonzero(self.match_sites(state, i, sites)))
            total += ct.rate * n
        return total

    def affected_anchors(self, changed_sites: Sequence[int]) -> np.ndarray:
        """Anchor sites whose enabled-status may change when the given sites change.

        Needed by the event-driven simulators (VSSM/FRM) to update their
        enabled-reaction bookkeeping: if site ``z`` changed, any anchor
        ``s`` with ``z in Nb_Rt(s)`` for some type, i.e.
        ``s = z - offset``, is affected.
        """
        offs = self.model.union_neighborhood()
        changed = np.asarray(list(changed_sites), dtype=np.intp)
        out = []
        for off in offs:
            neg = tuple(-o for o in off)
            out.append(self.lattice.neighbor_map(neg)[changed])
        return np.unique(np.concatenate(out))


def _pattern_extent(model: Model) -> tuple[int, ...]:
    """Max pattern extent (per axis) over all reaction types, in sites."""
    ndim = model.ndim
    extent = [1] * ndim
    for rt in model.reaction_types:
        for d in range(ndim):
            vals = [c.offset[d] for c in rt.changes]
            extent[d] = max(extent[d], max(vals) - min(vals) + 1)
    return tuple(extent)
