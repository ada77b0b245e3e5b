"""Experiment drivers: one module per table/figure of the paper.

Every driver exposes ``run_*`` (returns structured data) and
``*_report`` (plain-text rendering); each module is runnable as
``python -m repro.experiments.<name>``.  The mapping to the paper:

==================  ====================================================
module              reproduces
==================  ====================================================
``tables``          Table I (reaction types), Table II (type split)
``fig2_conflicts``  Fig. 2 (synchronous-update conflicts)
``fig3_bca``        Fig. 3 (1-d Block CA with shifting blocks)
``fig4_partition``  Fig. 4 (optimal five-chunk partition)
``fig6_typepart``   Figs. 5/6 (pattern overlap; 2-chunk type partitions)
``fig7_speedup``    Fig. 7 (speedup surface on the modelled machine)
``fig8_limits``     Fig. 8 (L-PNDCA limit cases coincide with RSM)
``fig9_l_effect``   Fig. 9 (effect of L with five chunks)
``fig10_random_order``  Fig. 10 (random chunk order at maximal L)
``criteria``        section 6 (Segers correctness criteria)
``phase_diagram``   "simulation of Ziff model" (kinetic phase diagram)
``ndca_bias``       section 4 (NDCA degeneracy: Ising / single-file)
``fast_diffusion``  section 6 closing claim (fast diffusion -> accurate CA)
``ablations``       design-choice ablations (strategies, kernels)
``paper_scale``     Figs. 8-10 at the paper's 100x100 scale (long runs)
==================  ====================================================
"""

from . import (
    ablations,
    criteria,
    fast_diffusion,
    fig2_conflicts,
    fig3_bca,
    fig4_partition,
    fig6_typepart,
    fig7_speedup,
    fig8_limits,
    fig9_l_effect,
    fig10_random_order,
    ndca_bias,
    oscillation_common,
    paper_scale,
    phase_diagram,
    tables,
)

#: experiment id -> (module, report callable name)
REGISTRY = {
    "table1": (tables, "table1_report"),
    "table2": (tables, "table2_report"),
    "fig2": (fig2_conflicts, "fig2_report"),
    "fig3": (fig3_bca, "fig3_report"),
    "fig4": (fig4_partition, "fig4_report"),
    "fig6": (fig6_typepart, "fig6_report"),
    "fig7": (fig7_speedup, "fig7_report"),
    "fig8": (fig8_limits, "fig8_report"),
    "fig9": (fig9_l_effect, "fig9_report"),
    "fig10": (fig10_random_order, "fig10_report"),
    "criteria": (criteria, "criteria_report"),
    "phase-diagram": (phase_diagram, "phase_diagram_report"),
    "ndca-bias": (ndca_bias, "ndca_bias_report"),
    "fast-diffusion": (fast_diffusion, "fast_diffusion_report"),
    "ablation-strategies": (ablations, "strategy_ablation_report"),
    "ablation-kernels": (ablations, "kernel_ablation_report"),
}


def report(experiment_id: str) -> str:
    """Run one experiment by id and return its text report."""
    try:
        module, fn = REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
        ) from None
    return getattr(module, fn)()


__all__ = ["REGISTRY", "report"]
