"""Conflict graphs and graph-colouring construction of partitions.

The non-overlap rule induces a *conflict graph* on the lattice sites:
``s ~ t`` iff some pair of reaction types anchored at ``s`` and ``t``
touches a common site (equivalently ``t - s`` lies in the difference
set of the union neighborhood).  A partition into conflict-free chunks
is exactly a proper colouring of this graph, and minimising the number
of chunks ``|P|`` is graph colouring — NP-hard in general, but the
translation-invariant structure makes good colourings easy:

* greedy colouring in flat site order gives an upper bound and a
  usable partition for *any* model;
* the maximum clique through a site gives a lower bound on ``|P|``
  (for the von-Neumann pair neighborhood of the CO-oxidation model the
  bound is 5, met by the modular tiling of Fig. 4 — see
  :mod:`repro.partition.tilings`).
"""

from __future__ import annotations

import itertools

import numpy as np

from ..core.lattice import Lattice, Offset
from ..core.model import Model
from .conflicts import model_witnesses
from .partition import Partition

__all__ = [
    "conflict_graph",
    "greedy_partition",
    "clique_lower_bound",
    "chunk_count_bounds",
]


def conflict_graph(lattice: Lattice, model: Model) -> list[np.ndarray]:
    """The conflict graph of a model on a lattice, as adjacency lists.

    Entry ``s`` holds the sorted flat indices of the sites that conflict
    with site ``s``: ``s + d`` for every conflict displacement ``d``,
    without ``s`` itself and without repeats (on tiny lattices offsets
    wrap onto the site or onto each other).  Size is ``O(N * |D|)`` —
    fine for the lattice sizes used to *construct* partitions.
    """
    n = lattice.n_sites
    maps = [lattice.neighbor_map(d) for d in model_witnesses(model)]
    if not maps:
        return [np.empty(0, dtype=np.intp) for _ in range(n)]
    table = np.sort(np.stack(maps, axis=1), axis=1)
    keep = table != np.arange(n)[:, None]
    keep[:, 1:] &= table[:, 1:] != table[:, :-1]
    return [row[k] for row, k in zip(table, keep)]


def greedy_partition(lattice: Lattice, model: Model) -> Partition:
    """Partition from a greedy colouring of the conflict graph.

    Sites are coloured in flat index order, each with the smallest
    colour none of its already coloured neighbours has — a proper
    colouring, hence conflict-free by construction.
    """
    labels = [-1] * lattice.n_sites
    for s, neighbours in enumerate(conflict_graph(lattice, model)):
        taken = {labels[t] for t in neighbours.tolist()}
        colour = 0
        while colour in taken:
            colour += 1
        labels[s] = colour
    return Partition.from_labels(lattice, np.array(labels), name="greedy")


def clique_lower_bound(model: Model) -> int:
    """A lower bound on the number of chunks of any conflict-free partition.

    Builds the conflict graph restricted to a neighbourhood ball around
    one site (the graph is vertex-transitive, so any maximum clique
    appears there) and returns the size of its largest clique, found by
    Bron–Kerbosch.  Since all sites of a clique must lie in
    pairwise-different chunks, ``|P| >= clique``.
    """
    displacements = list(model_witnesses(model))
    if not displacements:
        return 1
    ndim = len(displacements[0])
    # radius of the ball: max displacement magnitude per axis
    radius = [max(abs(d[a]) for d in displacements) for a in range(ndim)]
    points = list(itertools.product(*(range(-r, r + 1) for r in radius)))
    dset = set(displacements)
    adjacent = {
        a: {b for b in points if tuple(x - y for x, y in zip(b, a)) in dset}
        for a in points
    }
    return _largest_clique(0, set(points), set(), adjacent)


def _largest_clique(
    size: int, candidates: set[Offset], excluded: set[Offset],
    adjacent: dict[Offset, set[Offset]],
) -> int:
    """Bron–Kerbosch with pivoting: the largest clique that extends a
    clique of ``size`` vertices by vertices of ``candidates``."""
    if not candidates and not excluded:
        return size
    pivot = max(candidates | excluded, key=lambda u: len(adjacent[u] & candidates))
    best = size
    for v in list(candidates - adjacent[pivot]):
        best = max(best, _largest_clique(
            size + 1, candidates & adjacent[v], excluded & adjacent[v], adjacent
        ))
        candidates.remove(v)
        excluded.add(v)
    return best


def chunk_count_bounds(lattice: Lattice, model: Model) -> tuple[int, int]:
    """(lower, upper) bounds on the minimal ``|P|`` for a model.

    Lower bound from :func:`clique_lower_bound`; upper bound from the
    greedy colouring on the given lattice.
    """
    lower = clique_lower_bound(model)
    upper = greedy_partition(lattice, model).m
    return lower, max(lower, upper)
