"""Figs. 5/6: pattern overlap at a site and the two-chunk partitions per Tj.

Fig. 5 shows that the four oriented pair patterns of the CO-oxidation
model all overlap at the central site — which is why the all-types
partition needs five chunks.  Fig. 6 shows the remedy: after splitting
the reaction types by orientation (Table II), each subset only needs
the two-chunk checkerboard partition.  The driver regenerates both
facts and demonstrates the resulting type-partitioned CA on the Ziff
model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ca.typepart import TypePartitionedCA, validate_partition_for_single_types
from ..core.lattice import Lattice
from ..dmc.base import CoverageObserver
from ..dmc.rsm import RSM
from ..io.report import format_table
from ..models.zgb import ziff_model
from ..partition.coloring import clique_lower_bound
from ..partition.tilings import checkerboard
from ..partition.typesplit import split_by_orientation

__all__ = ["Fig6Result", "run_fig6", "fig6_report"]


@dataclass
class Fig6Result:
    """Partition facts and coverage comparison of the Fig. 5/6 experiment."""
    overlap_count_all_types: int   # sites overlapping at s over all patterns
    chunks_all_types: int          # chunks needed for the union (Fig. 4: 5)
    chunks_per_subset: int         # chunks per Tj (Fig. 6: 2)
    checkerboard_valid: bool
    subsets: list[tuple[str, list[str]]]
    final_coverages_typepart: dict[str, float]
    final_coverages_rsm: dict[str, float]


def run_fig6(side: int = 20, until: float = 5.0, seed: int = 0) -> Fig6Result:
    """Regenerate the Fig. 5/6 facts and demo the type-partitioned CA."""
    model = ziff_model()
    lattice = Lattice((side, side))

    # Fig. 5: all pair patterns share the central site
    union = model.union_neighborhood()
    overlap = len(union)  # anchors + the four pair partners

    split = split_by_orientation(model)
    cb = checkerboard(lattice)
    try:
        validate_partition_for_single_types(cb, model)
        cb_valid = True
    except ValueError:
        cb_valid = False

    sim = TypePartitionedCA(
        model, lattice, seed=seed, type_split=split, partition=cb,
        observers=[CoverageObserver(1.0)],
    )
    r_tp = sim.run(until=until)
    r_rsm = RSM(
        model, lattice, seed=seed, observers=[CoverageObserver(1.0)]
    ).run(until=until)

    subsets = [
        (
            f"T{s.index}",
            [model.reaction_types[i].name for i in s.type_indices],
        )
        for s in split.subsets
    ]
    return Fig6Result(
        overlap_count_all_types=overlap,
        chunks_all_types=clique_lower_bound(model),
        chunks_per_subset=cb.m,
        checkerboard_valid=cb_valid,
        subsets=subsets,
        final_coverages_typepart=r_tp.final_state.coverages(),
        final_coverages_rsm=r_rsm.final_state.coverages(),
    )


def fig6_report(result: Fig6Result | None = None) -> str:
    """Render the Fig. 5/6 report (runs with defaults when no result given)."""
    r = result or run_fig6()
    lines = [
        "Figs. 5/6 - reaction-type partitioning",
        "",
        f"Fig. 5: the union neighborhood of all reaction types spans "
        f"{r.overlap_count_all_types} sites around s -> any all-types "
        f"partition needs >= {r.chunks_all_types} chunks",
        f"Fig. 6: after the Table II split, each subset Tj is served by the "
        f"{r.chunks_per_subset}-chunk checkerboard "
        f"(valid: {r.checkerboard_valid})",
        "",
    ]
    for name, members in r.subsets:
        lines.append(f"  {name}: " + ", ".join(members))
    lines.append("")
    body = [
        (sp, f"{r.final_coverages_typepart.get(sp, 0):.3f}",
         f"{r.final_coverages_rsm.get(sp, 0):.3f}")
        for sp in r.final_coverages_rsm
    ]
    lines.append(
        format_table(["species", "TypePartCA coverage", "RSM coverage"], body)
    )
    lines.append(
        "(the type-partitioned CA trades accuracy for 2-chunk concurrency - "
        "mass application of one type amplifies correlations)"
    )
    return "\n".join(lines)
