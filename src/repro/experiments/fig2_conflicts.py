"""Fig. 2: conflicts of the naive synchronous CA on a diffusion model.

The paper's Fig. 2 shows two particles flanking one vacancy, both
eligible to hop into it during the same synchronous step.  This driver
quantifies the problem: it runs the naive synchronous CA on the 2-d
diffusion model at several densities and reports

* the conflict rate (fraction of proposals whose neighborhoods
  overlap another proposal's),
* the particle-conservation error of each conflict policy (the
  ``discard`` policy conserves particles but suppresses boundary
  hops; *ignoring* conflicts — executing overlapping proposals anyway
  — is shown to break conservation via a deliberately unsafe replay).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ca.sync import SynchronousCA
from ..core.lattice import Lattice
from ..io.report import format_table
from ..models.diffusion import diffusion_model_2d, random_gas

__all__ = ["Fig2Point", "run_fig2", "fig2_report"]


@dataclass(frozen=True)
class Fig2Point:
    """Conflict and conservation statistics at one particle density."""
    density: float
    conflict_rate: float
    particles_before: int
    particles_after_discard: int
    particles_after_unsafe: int

    @property
    def discard_conserves(self) -> bool:
        """Did the discard policy conserve the particle number?"""
        return self.particles_after_discard == self.particles_before

    @property
    def unsafe_violates(self) -> bool:
        """Did executing conflicting proposals change the particle number?"""
        return self.particles_after_unsafe != self.particles_before


def _unsafe_synchronous_step(state, compiled, rng) -> None:
    """Execute *all* matching proposals simultaneously, conflicts included.

    This is the broken update of Fig. 2: overlapping writes are applied
    in arbitrary order, so two particles can hop into one vacancy and
    one of them vanishes.  For demonstration only.
    """
    from ..core.rng import draw_types

    n = compiled.n_sites
    sites = np.arange(n, dtype=np.intp)
    types = draw_types(rng, compiled.type_cum, n)
    old = state.copy()  # true synchronous semantics: match on the OLD state
    for t in np.unique(types):
        pick = sites[types == t]
        mask = compiled.match_sites(old, int(t), pick)
        hits = pick[mask]
        ct = compiled.types[t]
        for m, v in zip(ct.maps, ct.tgts):
            state[m[hits]] = v


def run_fig2(
    densities=(0.1, 0.3, 0.5, 0.7),
    side: int = 32,
    steps: int = 50,
    seed: int = 0,
) -> list[Fig2Point]:
    """Measure conflict rates and conservation at several densities."""
    model = diffusion_model_2d()
    lattice = Lattice((side, side))
    out = []
    for rho in densities:
        rng = np.random.default_rng(seed)
        initial = random_gas(lattice, model, rho, rng)
        n0 = int(np.count_nonzero(initial.array))

        sim = SynchronousCA(
            model, lattice, seed=seed, initial=initial, on_conflict="discard"
        )
        sim.run(until=np.inf, max_steps=steps)
        n_discard = int(np.count_nonzero(sim.state.array))

        compiled = model.compile(lattice)
        unsafe = initial.copy()
        rng2 = np.random.default_rng(seed)
        for _ in range(steps):
            _unsafe_synchronous_step(unsafe.array, compiled, rng2)
        n_unsafe = int(np.count_nonzero(unsafe.array))

        out.append(
            Fig2Point(
                density=rho,
                conflict_rate=sim.conflict_rate(),
                particles_before=n0,
                particles_after_discard=n_discard,
                particles_after_unsafe=n_unsafe,
            )
        )
    return out


def fig2_report(points: list[Fig2Point] | None = None) -> str:
    """Render the Fig. 2 table (runs with defaults when no points given)."""
    points = points or run_fig2()
    body = [
        (
            p.density,
            f"{p.conflict_rate:.3f}",
            p.particles_before,
            p.particles_after_discard,
            p.particles_after_unsafe,
            "ok" if (p.discard_conserves and p.unsafe_violates) else "UNEXPECTED",
        )
        for p in points
    ]
    return (
        "Fig. 2 - synchronous-update conflicts (2-d diffusion)\n"
        + format_table(
            [
                "density",
                "conflict rate",
                "particles t=0",
                "after discard-CA",
                "after unsafe-CA",
                "conservation",
            ],
            body,
        )
    )
