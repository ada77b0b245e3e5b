#!/usr/bin/env python3
"""Ground truth: DMC replicas vs the exactly integrated Master Equation.

For a tiny 2x2 lattice the full Master Equation (3^4 = 81 configuration
states) can be integrated exactly.  This example shows the stochastic
simulators (RSM, VSSM, FRM) converging to the exact coverage curves in
the mean over 400 replicas (one ``run_ensemble`` loop per algorithm) —
the correctness foundation of everything else in this package.

Run:  python examples/exact_vs_dmc.py
"""

from repro import Configuration, CoverageObserver, Lattice, MasterEquation
from repro.analysis import run_ensemble
from repro.dmc import FRM, RSM, VSSM
from repro.io import format_table
from repro.models import ziff_model


def main() -> None:
    model = ziff_model(k_co=1.0, k_o2=0.5, k_co2=2.0)
    lattice = Lattice((2, 2))

    # --- exact ----------------------------------------------------------
    me = MasterEquation(model, lattice)
    print(f"state space: {me.n_states} configurations")
    p0 = me.delta(Configuration.empty(lattice, model.species))
    times = [0.25, 0.5, 1.0, 2.0]
    P = me.propagate(p0, times)
    exact_co = me.expected_coverage(P, "CO")
    exact_o = me.expected_coverage(P, "O")

    # --- stochastic replicas --------------------------------------------
    # one run_ensemble loop per (algorithm, t); an observer with
    # interval t samples exactly the state at t
    n_runs = 400
    rows = []
    for k, t in enumerate(times):
        row = [t, f"{exact_co[k]:.4f}/{exact_o[k]:.4f}"]
        for cls in (RSM, VSSM, FRM):
            ens = run_ensemble(
                lambda seed: cls(
                    model, lattice, seed=seed, observers=[CoverageObserver(t)]
                ),
                range(n_runs),
                until=t,
            )
            row.append(f"{ens.mean['CO'][-1]:.4f}/{ens.mean['O'][-1]:.4f}")
        rows.append(row)

    print()
    print("<theta_CO>/<theta_O> at time t (mean of 400 replicas each):")
    print(format_table(["t", "exact ME", "RSM", "VSSM", "FRM"], rows))
    print()
    print("standard error of each replica mean is ~0.02; all three DMC")
    print("algorithms realise the same Master Equation.")


if __name__ == "__main__":
    main()
