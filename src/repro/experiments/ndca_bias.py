"""Extra experiment: the NDCA site-selection bias (Ising / single-file).

Section 4 of the paper: "This difference in selecting a site
introduces biases in the rates of the reactions and causes NDCA to
give degenerate results for some systems (Ising models, Single-File
models, etc.)".  Two probes:

* **Ising**: at low temperature, equilibrium magnetisation statistics
  under RSM (correct Glauber dynamics) vs the once-per-site NDCA sweep
  — the sweep's systematic site ordering alters the dynamics (in the
  extreme synchronous limit it produces Vichniac's anti-ferromagnetic
  blinking artefacts);
* **Single-file**: tracer mean-squared displacement in a 1-d pore,
  whose subdiffusive scaling is sensitive to the order in which hop
  opportunities are offered.

The driver reports the observable pairs; the reproduction claim is a
*measurable systematic difference* between the methods on these
systems (the paper cites, not plots, this effect).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ca.ndca import NDCA
from ..core.lattice import Lattice
from ..dmc.rsm import RSM
from ..io.report import format_table
from ..models.ising import ising_model_2d, magnetization, random_spins
from ..models.single_file import equally_spaced, single_file_model, tracer_displacements

__all__ = ["BiasResult", "run_ndca_bias", "ndca_bias_report"]


@dataclass
class BiasResult:
    """RSM-vs-NDCA observable pairs for the bias probes."""
    ising_abs_m_rsm: float
    ising_abs_m_ndca: float
    ising_flips_rsm: float       # executed flips per site per unit time
    ising_flips_ndca: float
    sf_msd_rsm: float            # tracer MSD at the horizon
    sf_msd_ndca: float


def _ising_stats(algorithm: str, beta: float, side: int, until: float, seeds) -> tuple[float, float]:
    model = ising_model_2d(beta)
    lattice = Lattice((side, side))
    abs_m = []
    rate = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        initial = random_spins(lattice, model, rng)
        cls = RSM if algorithm == "RSM" else NDCA
        sim = cls(model, lattice, seed=seed, initial=initial)
        r = sim.run(until=until)
        abs_m.append(abs(magnetization(r.final_state)))
        rate.append(r.n_executed / (lattice.n_sites * r.final_time))
    return float(np.mean(abs_m)), float(np.mean(rate))


def _single_file_msd(algorithm: str, length: int, n_particles: int, until: float, seeds) -> float:
    model = single_file_model()
    lattice = Lattice((length,))
    msds = []
    for seed in seeds:
        initial = equally_spaced(lattice, model, n_particles)
        cls = RSM if algorithm == "RSM" else NDCA
        sim = cls(
            model, lattice, seed=seed, initial=initial, record_events=True
        )
        sim.run(until=until)
        disp = tracer_displacements(initial, sim.trace, model)
        msds.append(float(np.mean(disp.astype(float) ** 2)))
    return float(np.mean(msds))


def run_ndca_bias(
    beta: float = 0.6,
    side: int = 16,
    ising_until: float = 30.0,
    sf_length: int = 64,
    sf_particles: int = 32,
    sf_until: float = 50.0,
    seeds: tuple[int, ...] = (0, 1, 2),
) -> BiasResult:
    """Run the Ising and single-file probes under RSM and NDCA."""
    m_rsm, f_rsm = _ising_stats("RSM", beta, side, ising_until, seeds)
    m_ndca, f_ndca = _ising_stats("NDCA", beta, side, ising_until, seeds)
    msd_rsm = _single_file_msd("RSM", sf_length, sf_particles, sf_until, seeds)
    msd_ndca = _single_file_msd("NDCA", sf_length, sf_particles, sf_until, seeds)
    return BiasResult(
        ising_abs_m_rsm=m_rsm,
        ising_abs_m_ndca=m_ndca,
        ising_flips_rsm=f_rsm,
        ising_flips_ndca=f_ndca,
        sf_msd_rsm=msd_rsm,
        sf_msd_ndca=msd_ndca,
    )


def ndca_bias_report(result: BiasResult | None = None) -> str:
    """Render the bias table (runs with defaults when no result given)."""
    r = result or run_ndca_bias()
    body = [
        ("Ising |m| (beta=0.6)", f"{r.ising_abs_m_rsm:.3f}", f"{r.ising_abs_m_ndca:.3f}"),
        ("Ising flips/site/time", f"{r.ising_flips_rsm:.3f}", f"{r.ising_flips_ndca:.3f}"),
        ("single-file tracer MSD", f"{r.sf_msd_rsm:.2f}", f"{r.sf_msd_ndca:.2f}"),
    ]
    return (
        "NDCA site-selection bias probes (RSM = reference)\n"
        + format_table(["observable", "RSM", "NDCA"], body)
        + "\n(the once-per-site sweep changes kinetic observables on "
        "correlation-sensitive models - the degeneracy the paper cites)"
    )
