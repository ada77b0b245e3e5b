"""Fig. 7: PNDCA speedup ``T(1,N)/T(p,N)`` over lattice size and processors.

The paper measured wall-clock speedups of PNDCA on a parallel machine
(p = 2..10, lattice sides 200..1000), finding speedup growing with
both axes and saturating around 7-8 at p = 10 for the largest
lattices.  This reproduction has no parallel machine, so the surface
is generated by the cost model of :mod:`repro.parallel.machine` with
the documented 2003-era constants :data:`DEFAULT_2003` (a model, not
a measurement: the report is the same on every host).  In addition,
the driver runs the *real* multiprocessing executor once to verify
the algorithm actually parallelises without conflicts (bit-identical
state to the serial run).

The same report carries the two views the paper's discussion adds to
the figure: the Segers domain-decomposition route (boundary traffic
grows as the strips thin) and the strong/weak scaling and
isoefficiency of the modelled machine.

Expected reproduction shape: monotone growth in N, saturation in p,
maximum ~7-8 at (N=1000, p=10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.lattice import Lattice
from ..io.report import format_surface, format_table
from ..lint import preflight_model
from ..models.zgb import ziff_model
from ..parallel.domain import DomainDecomposedRSM
from ..parallel.machine import DEFAULT_2003, MachineSpec
from ..parallel.scaling import isoefficiency_sites, strong_scaling, weak_scaling
from ..parallel.speedup import fig7_surface

__all__ = ["Fig7Result", "run_fig7", "fig7_report"]


@dataclass
class Fig7Result:
    """The modelled speedup surface, its verification and the scaling views."""
    sides: list[int]
    ps: list[int]
    surface: np.ndarray
    spec: MachineSpec
    executor_verified: bool  # parallel == serial state on the real executor
    # (strips p, volume/boundary, boundary events, modelled speedup)
    domain_decomposition: list[tuple[int, float, int, float]]
    strong: list[tuple[int, float, float]]        # (p, speedup, efficiency)
    weak: list[tuple[int, int, float]]            # (p, N, efficiency)
    isoefficiency: list[tuple[int, int | None]]   # (p, sites for E = 0.7)

    @property
    def max_speedup(self) -> float:
        """Largest modelled speedup on the surface (the paper's top corner)."""
        return float(self.surface.max())


def _verify_executor(seed: int = 3) -> bool:
    """Serial vs multiprocessing PNDCA: bit-identical final states."""
    from ..ca.pndca import PNDCA
    from ..parallel.executor import ParallelChunkExecutor, ParallelPNDCA
    from ..partition.tilings import five_chunk_partition

    model = ziff_model()
    lattice = Lattice((20, 20))
    preflight_model(model)
    p5 = five_chunk_partition(lattice)
    serial = PNDCA(model, lattice, seed=seed, partition=p5, strategy="ordered")
    rs = serial.run(until=5.0)
    with ParallelChunkExecutor(model, lattice, n_workers=2) as ex:
        par = ParallelPNDCA(
            model, lattice, seed=seed, partition=p5, strategy="ordered", executor=ex
        )
        rp = par.run(until=5.0)
    return bool(np.array_equal(rs.final_state.array, rp.final_state.array))


def _domain_decomposition(spec: MachineSpec) -> list[tuple[int, float, int, float]]:
    """The Segers route on 48x48 ZGB: thinner strips, more boundary traffic."""
    rows = []
    for p in (2, 4, 8):
        sim = DomainDecomposedRSM(ziff_model(), Lattice((48, 48)), seed=0, n_strips=p)
        sim.run(until=2.0)
        # strips compute concurrently: serial work / modelled time
        serial = sim.n_trials * spec.t_trial
        parallel = sim.modelled_parallel_time(spec)
        rows.append(
            (p, sim.volume_boundary_ratio(), sim.boundary_events, serial / max(parallel, 1e-12))
        )
    return rows


def run_fig7(
    sides: list[int] | None = None,
    ps: list[int] | None = None,
    verify_executor: bool = True,
) -> Fig7Result:
    """Generate the Fig. 7 surface and scaling views on :data:`DEFAULT_2003`."""
    spec = DEFAULT_2003
    s, p, surf = fig7_surface(spec, sides, ps)
    return Fig7Result(
        sides=s,
        ps=p,
        surface=surf,
        spec=spec,
        executor_verified=_verify_executor() if verify_executor else False,
        domain_decomposition=_domain_decomposition(spec),
        strong=strong_scaling(spec, 600 * 600, [2, 4, 8, 16]),
        weak=weak_scaling(spec, sites_per_processor=50_000, ps=[2, 4, 8, 16]),
        isoefficiency=isoefficiency_sites(spec, 0.7, [2, 4, 8]),
    )


def fig7_report(result: Fig7Result | None = None) -> str:
    """Render the Fig. 7 table (runs with defaults when no result given)."""
    r = result or run_fig7()
    lines = [
        "Fig. 7 - PNDCA speedup T(1,N)/T(p,N) on the modelled machine",
        f"  spec: t_trial={r.spec.t_trial:.3g}s, t_latency={r.spec.t_latency:.3g}s, "
        f"t_update={r.spec.t_update:.3g}s, acceptance={r.spec.acceptance:.3f}",
        "",
        format_surface("N", r.sides, "p", r.ps, np.round(r.surface, 2)),
        "",
        f"max speedup: {r.max_speedup:.2f} at p={r.ps[-1]}, N={r.sides[-1]} "
        "(paper: ~7-8)",
        f"real multiprocessing executor bit-identical to serial PNDCA: "
        f"{r.executor_verified}",
        "",
        "Domain decomposition (Segers) volume/boundary trade-off",
        format_table(
            ["strips p", "volume/boundary", "boundary events", "modelled speedup"],
            r.domain_decomposition,
        ),
        "",
        "Scaling analysis on the modelled machine (PNDCA, 5 chunks)",
        "",
        "strong scaling (N = 600x600):",
        format_table(
            ["p", "speedup", "efficiency"],
            [(p, f"{s:.2f}", f"{e:.2f}") for p, s, e in r.strong],
        ),
        "",
        "weak scaling (50k sites per processor):",
        format_table(
            ["p", "N", "efficiency"],
            [(p, n, f"{e:.2f}") for p, n, e in r.weak],
        ),
        "",
        "isoefficiency (target E = 0.7):",
        format_table(
            ["p", "sites needed"],
            [(p, n if n is not None else "unreachable") for p, n in r.isoefficiency],
        ),
    ]
    return "\n".join(lines)
