"""Experiment drivers: one module per table/figure of the paper.

Every driver exposes ``run_*`` (returns structured data) and
``*_report`` (plain-text rendering); ``python -m repro run <id>``
prints one (ids in :data:`REGISTRY`).  The mapping to the paper:

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

#: experiment id -> (module, driver, renderer); the renderer turns the
#: driver's result into ``benchmarks/reports/<id>.txt``
REGISTRY = {
    "table1": (tables, "table1_rows", "table1_report"),
    "table2": (tables, "table2_split", "table2_report"),
    "fig2": (fig2_conflicts, "run_fig2", "fig2_report"),
    "fig3": (fig3_bca, "run_fig3", "fig3_report"),
    "fig4": (fig4_partition, "run_fig4", "fig4_report"),
    "fig6": (fig6_typepart, "run_fig6", "fig6_report"),
    "fig7": (fig7_speedup, "run_fig7", "fig7_report"),
    "fig8": (fig8_limits, "run_fig8", "fig8_report"),
    "fig9": (fig9_l_effect, "run_fig9", "fig9_report"),
    "fig10": (fig10_random_order, "run_fig10", "fig10_report"),
    "criteria": (criteria, "run_segers", "criteria_report"),
    "phase-diagram": (phase_diagram, "run_phase_diagram", "phase_diagram_report"),
    "ndca-bias": (ndca_bias, "run_ndca_bias", "ndca_bias_report"),
    "fast-diffusion": (fast_diffusion, "run_fast_diffusion", "fast_diffusion_report"),
    "ablation-strategies": (ablations, "run_strategy_ablation", "strategy_ablation_report"),
    "ablation-kernels": (ablations, "run_kernel_ablation", "kernel_ablation_report"),
}


def run(experiment_id: str):
    """Run one experiment's driver at its defaults and return its result."""
    module, driver, _ = REGISTRY[experiment_id]
    return getattr(module, driver)()


def render(experiment_id: str, result) -> str:
    """Render a result of :func:`run` as the experiment's text report."""
    module, _, renderer = REGISTRY[experiment_id]
    return getattr(module, renderer)(result)


def report(experiment_id: str) -> str:
    """Run one experiment by id and return its text report."""
    if experiment_id not in REGISTRY:
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}")
    return render(experiment_id, run(experiment_id))


__all__ = ["REGISTRY", "render", "report", "run"]
