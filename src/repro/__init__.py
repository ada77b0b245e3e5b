"""repro — parallel simulation of surface reactions.

A production-quality reproduction of

    S.V. Nedea, J.J. Lukkien, A.P.J. Jansen, P.A.J. Hilbers,
    "Methods for parallel simulations of surface reactions",
    IPPS 2003 (arXiv:physics/0209017).

The package implements the full stack the paper builds on:

* :mod:`repro.core` — lattices, species, reaction types, compiled
  models, execution kernels;
* :mod:`repro.dmc` — Dynamic Monte Carlo simulators (RSM — the paper's
  baseline — plus VSSM, FRM) and the exact Master Equation;
* :mod:`repro.ca` — cellular-automaton simulators: NDCA, synchronous
  CA with conflict detection, Block CA, and the paper's contributions:
  PNDCA, L-PNDCA and the reaction-type-partitioned CA;
* :mod:`repro.partition` — conflict-free partitions: validation,
  colouring, modular tilings (the five-chunk Fig. 4 partition),
  reaction-type splits (Table II);
* :mod:`repro.parallel` — the simulated parallel machine (Fig. 7), a
  real shared-memory chunk executor, and Segers-style domain
  decomposition;
* :mod:`repro.models` — ZGB/Ziff CO oxidation (Table I), the
  oscillatory Pt(100) reconstruction model (Figs. 8-10), plus
  diffusion / Ising / single-file probe models;
* :mod:`repro.analysis` — waiting-time correctness criteria,
  oscillation analysis, curve comparison, ensembles;
* :mod:`repro.experiments` — one driver per table/figure of the paper.

Quickstart::

    from repro import Lattice, RSM, CoverageObserver
    from repro.models import ziff_model, empty_surface

    model = ziff_model(k_co=1.0, k_o2=0.5, k_co2=2.0)
    lattice = Lattice((100, 100))
    sim = RSM(model, lattice, seed=42,
              observers=[CoverageObserver(interval=1.0)])
    result = sim.run(until=50.0)
    print(result.summary())
"""

import importlib

__version__ = "1.0.0"

#: public name -> the subpackage defining it, imported on first access
#: (PEP 562), so ``import repro`` loads no engine until one is asked for
_EXPORTS = {
    "Lattice": "core",
    "Configuration": "core",
    "ModelBuilder": "core",
    "conserved_quantities": "core",
    "RSM": "dmc",
    "MasterEquation": "dmc",
    "CoverageObserver": "dmc",
    "SnapshotObserver": "dmc",
    "PNDCA": "ca",
    "LPNDCA": "ca",
    "five_chunk_partition": "partition",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        package = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{package}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
