"""Constructive partitions: modular tilings, blocks, checkerboards, stripes.

The partitions the paper actually uses are periodic *tilings*:

* **Modular tilings** ``chunk(i, j) = (a*i + b*j) mod m`` — Fig. 4 is
  the case ``(a, b, m) = (1, 2, 5)``, the optimal 5-chunk partition for
  von-Neumann pair patterns.  :func:`find_modular_tiling` searches the
  smallest valid ``(m, a, b)`` for an arbitrary model, checking the
  non-overlap rule on the displacement difference set directly.
* **Checkerboards / stripes** — the 2-chunk partitions used by the
  reaction-type-partitioned algorithm (Fig. 6), valid when only a
  single pattern orientation is in play.
* **Block partitions** — contiguous rectangular blocks, the classic
  Block-CA / domain-decomposition partition (Fig. 3); *not* conflict
  free at the edges, provided for the BCA and the Segers-style
  comparison.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.lattice import Lattice
from ..core.model import Model
from .conflicts import model_witnesses, residue_collides
from .partition import Partition, TilingSpec

__all__ = [
    "parse_tiling",
    "modular_tiling",
    "find_modular_tiling",
    "checkerboard",
    "stripes",
    "block_partition",
    "five_chunk_partition",
]


def parse_tiling(spec: str) -> tuple[int, tuple[int, ...]]:
    """Parse ``"M:C0,C1"`` (e.g. ``"5:1,2"``) into ``(m, coeffs)``, ``m >= 1``."""
    m_str, _, coeff_str = spec.partition(":")
    try:
        m = int(m_str)
        coeffs = tuple(int(c) for c in coeff_str.split(","))
    except ValueError:
        raise ValueError(
            f"tiling {spec!r} is not of the form 'M:C0,C1' (e.g. '5:1,2')"
        ) from None
    if m < 1:
        raise ValueError(f"tiling {spec!r}: modulus m must be >= 1, got {m}")
    return m, coeffs


def modular_tiling(
    lattice: Lattice, m: int, coeffs: Sequence[int], name: str = ""
) -> Partition:
    """Partition by ``chunk(x) = (coeffs . x) mod m``.

    For a 2-d lattice ``coeffs = (a, b)`` gives the labelling
    ``(a*i + b*j) mod m``; Fig. 4 of the paper is ``m=5, coeffs=(1,2)``.
    For equal chunk sizes, each lattice side should be a multiple of
    ``m`` where the corresponding coefficient is coprime with ``m``;
    unequal sizes are allowed (sizes are whatever the labelling gives)
    but the non-overlap rule may then fail at the wrap — always
    validate against the model.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if len(coeffs) != lattice.ndim:
        raise ValueError("one coefficient per lattice axis required")
    grids = np.meshgrid(
        *(np.arange(s, dtype=np.intp) for s in lattice.shape), indexing="ij"
    )
    lab = np.zeros(lattice.shape, dtype=np.intp)
    for g, c in zip(grids, coeffs):
        lab += int(c) * g
    lab %= m
    p = Partition.from_labels(
        lattice, lab, name=name or f"modular(m={m}, coeffs={tuple(coeffs)})"
    )
    # construction metadata: find_conflicts decides the non-overlap rule
    # by residue arithmetic instead of a site scan
    p.tiling = TilingSpec(m, tuple(int(c) for c in coeffs))
    return p


def find_modular_tiling(
    model: Model, max_m: int = 64
) -> tuple[int, tuple[int, ...]]:
    """Smallest modular tiling ``(m, coeffs)`` that is conflict-free.

    Searches ``m`` upward from 2 and coefficients in ``[0, m)``; the
    first hit is returned.  For the CO-oxidation model this finds
    ``m = 5`` (the paper's Fig. 4 optimum).  Raises ``ValueError`` if
    nothing is found up to ``max_m``.
    """
    displacements = model_witnesses(model)
    ndim = model.ndim
    for m in range(2, max_m + 1):
        coeffs_list: list[tuple[int, ...]]
        if ndim == 1:
            coeffs_list = [(a,) for a in range(1, m)]
        else:
            coeffs_list = [(a, b) for a in range(m) for b in range(m) if a or b]
        for coeffs in coeffs_list:
            if not any(residue_collides(coeffs, m, d) for d in displacements):
                return m, coeffs
    raise ValueError(f"no conflict-free modular tiling with m <= {max_m}")


def five_chunk_partition(lattice: Lattice) -> Partition:
    """The paper's Fig. 4 partition: ``(i + 2j) mod 5`` on a 2-d lattice.

    Optimal (5 chunks, matching the clique lower bound) for any model
    whose patterns are anchors plus nearest-neighbour sites (von
    Neumann).  Lattice sides should be multiples of 5 for equal chunks
    and a clean wrap.
    """
    if lattice.ndim != 2:
        raise ValueError("the five-chunk partition is 2-d")
    return modular_tiling(lattice, 5, (1, 2), name="five-chunk (Fig. 4)")


def five_chunk_family(lattice: Lattice) -> list[Partition]:
    """All four inequivalent optimal 5-chunk tilings for pair patterns.

    ``(i + 2j)``, ``(2i + j)``, ``(i + 3j)`` and ``(3i + j)`` mod 5 are
    pairwise different partitions (different same-chunk displacement
    lattices), each conflict-free for von-Neumann pair patterns.
    Feeding the family to :class:`~repro.ca.pndca.PNDCA` with a
    partition schedule alternates the tiling between steps — the
    paper's "choose a partition P" — washing out the anisotropic
    correlations a single fixed tiling would imprint.
    """
    if lattice.ndim != 2:
        raise ValueError("the five-chunk family is 2-d")
    return [
        modular_tiling(lattice, 5, coeffs, name=f"five-chunk{coeffs}")
        for coeffs in ((1, 2), (2, 1), (1, 3), (3, 1))
    ]


def checkerboard(lattice: Lattice, name: str = "checkerboard") -> Partition:
    """Two chunks by parity ``(i + j) mod 2`` (the Fig. 6 partition).

    Conflict-free for any *single* nearest-neighbour pair orientation
    (and trivially for single-site patterns) — the partition used per
    reaction-type subset by the type-partitioned algorithm.  Both
    lattice sides must be even for a clean periodic wrap.
    """
    if lattice.ndim == 1:
        return modular_tiling(lattice, 2, (1,), name=name)
    return modular_tiling(lattice, 2, (1, 1), name=name)


def stripes(lattice: Lattice, axis: int, m: int = 2) -> Partition:
    """Chunks by coordinate parity along one axis (``coord mod m``).

    ``stripes(lat, axis=1, m=2)`` = even/odd columns: conflict-free for
    horizontal pair patterns.
    """
    if not 0 <= axis < lattice.ndim:
        raise ValueError(f"axis {axis} out of range")
    coeffs = [0] * lattice.ndim
    coeffs[axis] = 1
    return modular_tiling(lattice, m, coeffs, name=f"stripes(axis={axis}, m={m})")


def block_partition(lattice: Lattice, block_shape: Sequence[int], shift: Sequence[int] | None = None) -> Partition:
    """Contiguous rectangular blocks (the Block-CA partition of Fig. 3).

    Every lattice side must be divisible by the corresponding block
    side.  ``shift`` displaces all block boundaries periodically (the
    BCA alternates between shifted partitions between steps).  The
    result is generally *not* conflict-free — neighbouring sites on two
    sides of a block edge conflict; it exists for the BCA and for
    domain decomposition, where edge effects are handled explicitly.
    """
    block_shape = tuple(int(b) for b in block_shape)
    if len(block_shape) != lattice.ndim:
        raise ValueError("block shape must match lattice dimensionality")
    if any(b < 1 for b in block_shape):
        raise ValueError(f"invalid block shape {block_shape}")
    if any(s % b for s, b in zip(lattice.shape, block_shape)):
        raise ValueError(
            f"lattice {lattice.shape} not divisible into blocks {block_shape}"
        )
    if shift is None:
        shift = (0,) * lattice.ndim
    grids = np.meshgrid(
        *(np.arange(s, dtype=np.intp) for s in lattice.shape), indexing="ij"
    )
    lab = np.zeros(lattice.shape, dtype=np.intp)
    for g, b, s, sh in zip(grids, block_shape, lattice.shape, shift):
        blocks_along = s // b
        lab = lab * blocks_along + ((g - sh) % s) // b
    return Partition.from_labels(
        lattice, lab, name=f"blocks{block_shape}+shift{tuple(shift)}"
    )
