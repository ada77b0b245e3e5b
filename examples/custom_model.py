#!/usr/bin/env python3
"""Define your own surface chemistry and parallelise it automatically.

The downstream-user workflow end to end:

1. describe a new reaction system with the fluent :class:`ModelBuilder`
   (here: A/B2 co-adsorption with an inert site-blocker C — not a model
   from the paper);
2. derive its conservation laws automatically;
3. let the partition machinery *find* a conflict-free partition for it
   (greedy colouring + modular-tiling search) and prove a lower bound;
4. run it through any algorithm via the taxonomy factory and compare
   the exact DMC against the parallel PNDCA.

Run:  python examples/custom_model.py
"""

from repro import Lattice, ModelBuilder, conserved_quantities
from repro.lint import preflight_partition
from repro.partition import (
    chunk_count_bounds,
    find_modular_tiling,
    greedy_partition,
    modular_tiling,
)
from repro.taxonomy import describe_all, make_simulator


def main() -> None:
    # --- 1. the chemistry ------------------------------------------------
    model = (
        ModelBuilder("ab2-with-blocker", species=("*", "A", "B", "C"))
        .adsorption("A_ads", "A", rate=1.0)
        .dissociative_adsorption("B2_ads", "B", rate=0.6)
        .pair_reaction("A+B", "A", "B", rate=8.0)       # products desorb
        .adsorption("C_ads", "C", rate=0.05)             # slow poisoning
        .desorption("C_des", "C", rate=0.02)
        .hop("A_hop", "A", rate=2.0)
        .build()
    )
    print(model.describe())
    print()

    # --- 2. conservation laws -------------------------------------------
    print("conserved quantities (integer basis):")
    for law in conserved_quantities(model):
        terms = " + ".join(f"{c}*{sp}" for sp, c in law.items() if c)
        print(f"  {terms} = const")
    print()

    # --- 3. automatic partitioning ----------------------------------------
    lattice = Lattice((60, 60))
    lo, hi = chunk_count_bounds(Lattice((10, 10)), model)
    m, coeffs = find_modular_tiling(model)
    print(f"chunk-count bounds for this chemistry: >= {lo} (clique), "
          f"greedy colouring achieves {hi}")
    print(f"modular-tiling search: m={m}, coefficients={coeffs}")
    partition = modular_tiling(lattice, m, coeffs)
    preflight_partition(partition, model)
    print(f"using {partition.name}: validated conflict-free")
    print()

    # --- 4. simulate through the taxonomy --------------------------------
    print(describe_all())
    print()
    for key, kwargs in (
        ("rsm", {}),
        ("pndca", {"partition": partition}),
    ):
        sim = make_simulator(key, model, lattice, seed=11, **kwargs)
        res = sim.run(until=15.0)
        cov = res.final_state.coverages()
        rate = res.n_trials / res.wall_time / 1e6
        print(
            f"{res.algorithm:<28s} {rate:5.2f} Mtrials/s  "
            + "  ".join(f"{k}={v:.3f}" for k, v in cov.items())
        )


if __name__ == "__main__":
    main()
