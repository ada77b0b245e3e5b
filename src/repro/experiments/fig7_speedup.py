"""Fig. 7: PNDCA speedup ``T(1,N)/T(p,N)`` over lattice size and processors.

The paper measured wall-clock speedups of PNDCA on a parallel machine
(p = 2..10, lattice sides 200..1000), finding speedup growing with
both axes and saturating around 7-8 at p = 10 for the largest
lattices.  This reproduction has no parallel machine, so the surface
is generated by the calibrated cost model of
:mod:`repro.parallel.machine`: the per-trial compute time is
*measured* from the package's real chunk kernels on the Pt(100)
workload, while network constants are the documented 2003-era
defaults.  In addition, the driver runs the *real* multiprocessing
executor once to verify the algorithm actually parallelises without
conflicts (bit-identical state to the serial run).

Expected reproduction shape: monotone growth in N, saturation in p,
maximum ~7-8 at (N=1000, p=10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.lattice import Lattice
from ..io.report import format_surface
from ..lint import preflight_model
from ..models.pt100 import pt100_model
from ..parallel.machine import DEFAULT_2003, MachineSpec
from ..parallel.speedup import calibrated_spec, fig7_surface

__all__ = ["Fig7Result", "run_fig7", "fig7_report"]


@dataclass
class Fig7Result:
    """The modelled speedup surface plus its calibration and verification."""
    sides: list[int]
    ps: list[int]
    surface: np.ndarray
    spec: MachineSpec
    executor_verified: bool  # parallel == serial state on the real executor

    @property
    def max_speedup(self) -> float:
        """Largest modelled speedup on the surface (the paper's top corner)."""
        return float(self.surface.max())


def _verify_executor(seed: int = 3) -> bool:
    """Serial vs multiprocessing PNDCA: bit-identical final states."""
    from ..ca.pndca import PNDCA
    from ..models.zgb import ziff_model
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


def run_fig7(
    calibrate: bool = True,
    calibration_side: int = 60,
    sides: list[int] | None = None,
    ps: list[int] | None = None,
    verify_executor: bool = True,
) -> Fig7Result:
    """Generate the Fig. 7 surface (optionally with measured calibration)."""
    if calibrate:
        spec = calibrated_spec(pt100_model(), Lattice((calibration_side, calibration_side)))
        # the python-vectorised kernel is faster per trial than a 2003
        # sequential C loop; keep the *measured* value but never below
        # a floor that keeps the latency/compute ratio in the regime
        # the paper's machine had
        if spec.t_trial < 0.2e-6:
            spec = MachineSpec(
                t_trial=0.2e-6,
                t_latency=DEFAULT_2003.t_latency * (0.2e-6 / DEFAULT_2003.t_trial),
                t_update=DEFAULT_2003.t_update * (0.2e-6 / DEFAULT_2003.t_trial),
                acceptance=spec.acceptance,
            )
    else:
        spec = DEFAULT_2003
    s, p, surf = fig7_surface(spec, sides, ps)
    return Fig7Result(
        sides=s,
        ps=p,
        surface=surf,
        spec=spec,
        executor_verified=_verify_executor() if verify_executor else False,
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
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    print(fig7_report())
