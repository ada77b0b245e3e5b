"""Fig. 4: the optimal five-chunk partition for von-Neumann patterns.

The paper's Fig. 4 shows a 5x5 tile whose sites are labelled 0..4 by
chunk, such that the pair patterns of the CO-oxidation model never
overlap within one chunk.  The driver regenerates the tile from the
``(i + 2j) mod 5`` tiling, validates the non-overlap rule, and proves
*optimality*: the clique lower bound of the model's conflict graph is
also 5, so no conflict-free partition can have fewer chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.lattice import Lattice
from ..models.zgb import ziff_model
from ..partition.coloring import clique_lower_bound, greedy_partition
from ..partition.conflicts import prove_tiling
from ..partition.tilings import find_modular_tiling, five_chunk_partition

__all__ = ["Fig4Result", "run_fig4", "fig4_report"]

#: The 5x5 tile as printed in Fig. 4 of the paper.
PAPER_FIG4_TILE = np.array(
    [
        [0, 1, 2, 3, 4],
        [3, 4, 0, 1, 2],
        [1, 2, 3, 4, 0],
        [4, 0, 1, 2, 3],
        [2, 3, 4, 0, 1],
    ]
)


@dataclass
class Fig4Result:
    """The generated tile plus the optimality evidence."""
    tile: np.ndarray              # generated 5x5 chunk labels
    matches_paper: bool           # identical to Fig. 4 up to relabelling
    conflict_free: bool
    clique_bound: int             # lower bound on |P|
    searched_m: int               # smallest modular tiling found by search
    greedy_m: int                 # chunks used by greedy colouring
    proof: str = ""               # symbolic all-sizes conflict-freedom proof


def _same_up_to_relabel(a: np.ndarray, b: np.ndarray) -> bool:
    """Do two label grids define the same partition (renamed chunks)?"""
    mapping: dict[int, int] = {}
    for x, y in zip(a.ravel().tolist(), b.ravel().tolist()):
        if mapping.setdefault(x, y) != y:
            return False
    return len(set(mapping.values())) == len(mapping)


def run_fig4(side: int = 5) -> Fig4Result:
    """Regenerate the Fig. 4 tile and prove the 5-chunk optimality."""
    model = ziff_model()
    lattice = Lattice((side, side))
    p = five_chunk_partition(lattice)
    ok = p.is_conflict_free(model)
    proof, _counterexamples = prove_tiling(model, 5, (1, 2))
    tile = p.grid_labels()[:5, :5]
    m_found, _coeffs = find_modular_tiling(model)
    greedy = greedy_partition(Lattice((10, 10)), model)
    return Fig4Result(
        tile=tile,
        matches_paper=_same_up_to_relabel(tile, PAPER_FIG4_TILE),
        conflict_free=ok,
        clique_bound=clique_lower_bound(model),
        searched_m=m_found,
        greedy_m=greedy.m,
        proof=proof.statement() if proof is not None else "",
    )


def fig4_report(result: Fig4Result | None = None) -> str:
    """Render the Fig. 4 report (runs with defaults when no result given)."""
    r = result or run_fig4()
    lines = ["Fig. 4 - five-chunk partition ((i + 2j) mod 5)", ""]
    for row in r.tile:
        lines.append("  " + " ".join(str(int(v)) for v in row))
    lines.append("")
    lines.append(f"matches the paper's tile (up to relabelling): {r.matches_paper}")
    lines.append(f"non-overlap rule holds: {r.conflict_free}")
    if r.proof:
        lines.append(r.proof)
    lines.append(
        f"optimality: clique lower bound = {r.clique_bound}, smallest modular "
        f"tiling found = {r.searched_m} chunks -> 5 is optimal"
    )
    lines.append(
        f"(greedy colouring uses {r.greedy_m} chunks - constructions beat "
        "generic colouring here)"
    )
    return "\n".join(lines)


if __name__ == "__main__":
    print(fig4_report())
