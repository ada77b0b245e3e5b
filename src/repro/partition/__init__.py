"""Partition machinery: conflict-free chunks, colouring, tilings, type splits."""

from .coloring import (
    chunk_count_bounds,
    clique_lower_bound,
    conflict_graph,
    greedy_partition,
)
from .partition import Partition
from .tilings import (
    block_partition,
    checkerboard,
    find_modular_tiling,
    five_chunk_family,
    five_chunk_partition,
    modular_tiling,
    stripes,
)
from .typesplit import TypeSplit, TypeSubset, split_by_orientation

__all__ = [
    "Partition",
    "conflict_graph",
    "greedy_partition",
    "clique_lower_bound",
    "chunk_count_bounds",
    "modular_tiling",
    "find_modular_tiling",
    "five_chunk_partition",
    "five_chunk_family",
    "checkerboard",
    "stripes",
    "block_partition",
    "TypeSplit",
    "TypeSubset",
    "split_by_orientation",
]
