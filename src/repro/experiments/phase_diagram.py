"""Extra experiment: the ZGB kinetic phase diagram ("Ziff model").

The paper's abstract promises "experimental data for the simulation of
Ziff model"; the model's famous feature is its kinetic phase diagram
over the CO mole fraction ``y``: an O-poisoned phase below
``y1 ~ 0.39``, a reactive window, and a discontinuous transition to a
CO-poisoned phase at ``y2 ~ 0.525``.  This driver sweeps ``y`` with
the (fast, vectorised) PNDCA and verifies selected points with RSM —
showcasing exactly the trade the paper proposes: a partitioned CA
doing the heavy scanning at DMC-compatible accuracy.

Expected reproduction shape: O coverage ~1 for small y; CO coverage
jumping to ~1 above the second transition; a reactive window in
between with both coverages well below 1; transition locations within
a few 0.01 of the literature values (finite size, finite reaction
rate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ca.pndca import PNDCA
from ..core.lattice import Lattice
from ..dmc.rsm import RSM
from ..ensemble import EnsemblePNDCA, EnsembleRSM
from ..io.report import format_table
from ..lint import preflight_model
from ..models.zgb import empty_surface, zgb_model
from ..partition.tilings import five_chunk_partition

__all__ = ["PhasePoint", "PhaseDiagram", "run_phase_diagram", "phase_diagram_report"]


@dataclass(frozen=True)
class PhasePoint:
    """Steady-state coverages of one y point of the sweep.

    With ``n_replicas > 1`` the coverages are ensemble means over
    independent replicas (vectorised via :mod:`repro.ensemble`) and the
    ``stderr_*`` fields carry the standard errors of those means;
    single-run points keep the default zero stderr.
    """
    y: float
    theta_co: float
    theta_o: float
    theta_empty: float
    algorithm: str
    n_replicas: int = 1
    stderr_co: float = 0.0
    stderr_o: float = 0.0
    stderr_empty: float = 0.0

    @property
    def poisoned(self) -> str:
        """Poisoning classification: "O", "CO" or "-" (reactive)."""
        if self.theta_o > 0.95:
            return "O"
        if self.theta_co > 0.95:
            return "CO"
        return "-"


@dataclass
class PhaseDiagram:
    """The swept phase points plus RSM verification runs."""
    points: list[PhasePoint] = field(default_factory=list)
    rsm_checks: list[PhasePoint] = field(default_factory=list)

    def transition_estimates(self) -> tuple[float, float]:
        """(y1, y2): first y that leaves the O-poisoned phase, first
        that enters the CO-poisoned phase (midpoints of the bracketing
        grid intervals; nan when not bracketed)."""
        ys = np.array([p.y for p in self.points])
        o_poisoned = np.array([p.poisoned == "O" for p in self.points])
        co_poisoned = np.array([p.poisoned == "CO" for p in self.points])
        y1 = float("nan")
        y2 = float("nan")
        for i in range(len(ys) - 1):
            if o_poisoned[i] and not o_poisoned[i + 1] and np.isnan(y1):
                y1 = float((ys[i] + ys[i + 1]) / 2)
            if not co_poisoned[i] and co_poisoned[i + 1] and np.isnan(y2):
                y2 = float((ys[i] + ys[i + 1]) / 2)
        return y1, y2


def _steady_point(
    y: float,
    side: int,
    until: float,
    seed: int,
    algorithm: str,
    n_replicas: int = 1,
) -> PhasePoint:
    model = zgb_model(y)
    preflight_model(model)
    lattice = Lattice((side, side))
    initial = empty_surface(lattice, model)
    if algorithm not in ("PNDCA", "RSM"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if n_replicas > 1:
        return _steady_point_ensemble(
            model, lattice, initial, until, seed, algorithm, n_replicas, y
        )
    if algorithm == "PNDCA":
        p5 = five_chunk_partition(lattice)
        sim = PNDCA(model, lattice, seed=seed, initial=initial, partition=p5)
    else:
        sim = RSM(model, lattice, seed=seed, initial=initial)
    r = sim.run(until=until)
    cov = r.final_state.coverages()
    return PhasePoint(
        y=y,
        theta_co=cov["CO"],
        theta_o=cov["O"],
        theta_empty=cov["*"],
        algorithm=algorithm,
    )


def _steady_point_ensemble(
    model, lattice, initial, until, seed, algorithm, n_replicas, y
) -> PhasePoint:
    """One y point as the mean over a stacked replica ensemble."""
    if algorithm == "PNDCA":
        p5 = five_chunk_partition(lattice)
        ens = EnsemblePNDCA(
            model, lattice, n_replicas=n_replicas, seed=seed,
            initial=initial, partition=p5,
        )
    else:
        ens = EnsembleRSM(
            model, lattice, n_replicas=n_replicas, seed=seed, initial=initial
        )
    res = ens.run(until=until)
    cov = res.mean_final_coverages()
    sem = res.stderr_final_coverages()
    return PhasePoint(
        y=y,
        theta_co=cov["CO"],
        theta_o=cov["O"],
        theta_empty=cov["*"],
        algorithm=algorithm,
        n_replicas=n_replicas,
        stderr_co=sem["CO"],
        stderr_o=sem["O"],
        stderr_empty=sem["*"],
    )


def run_phase_diagram(
    ys: np.ndarray | None = None,
    side: int = 50,  # must be a multiple of 5 (five-chunk tiling)
    until: float = 150.0,  # poisoning needs long horizons to complete
    seed: int = 0,
    rsm_check_ys: tuple[float, ...] = (0.45,),
    n_replicas: int = 1,
    checkpoint_dir: str | None = None,
) -> PhaseDiagram:
    """Sweep y with PNDCA; verify selected points with RSM.

    ``n_replicas > 1`` switches every point to the stacked ensemble
    engine: each coverage becomes a mean over that many independent
    replicas (with stderr on the :class:`PhasePoint`), at far less than
    ``n_replicas`` times the single-run cost.

    ``checkpoint_dir`` makes the sweep interruptible: each y point's
    engine run checkpoints there periodically, and SIGINT/SIGTERM flush
    a final checkpoint at the next step boundary before exiting.
    """
    if ys is None:
        ys = np.concatenate(
            [
                np.arange(0.30, 0.60 + 1e-9, 0.025),
            ]
        )
    if checkpoint_dir is not None:
        from ..resilience.checkpoint import (
            Checkpointer,
            CheckpointPolicy,
            use_checkpoints,
        )

        ckpt = Checkpointer(
            checkpoint_dir,
            CheckpointPolicy(every_steps=None, every_seconds=30.0),
            tag="phase-diagram",
        )
        with use_checkpoints(ckpt):
            return run_phase_diagram(
                ys, side, until, seed, rsm_check_ys, n_replicas, None
            )
    out = PhaseDiagram()
    for y in ys:
        out.points.append(
            _steady_point(float(y), side, until, seed, "PNDCA", n_replicas)
        )
    for y in rsm_check_ys:
        out.rsm_checks.append(
            _steady_point(float(y), side, until, seed, "RSM", n_replicas)
        )
    return out


def phase_diagram_report(diagram: PhaseDiagram | None = None) -> str:
    """Render the phase diagram (runs with defaults when no diagram given)."""
    d = diagram or run_phase_diagram()
    ensembled = any(p.n_replicas > 1 for p in d.points)

    def _fmt(v: float, sem: float) -> str:
        return f"{v:.3f}±{sem:.3f}" if ensembled else f"{v:.3f}"

    body = [
        (f"{p.y:.3f}", _fmt(p.theta_co, p.stderr_co),
         _fmt(p.theta_o, p.stderr_o),
         _fmt(p.theta_empty, p.stderr_empty), p.poisoned)
        for p in d.points
    ]
    y1, y2 = d.transition_estimates()
    title = "ZGB kinetic phase diagram (PNDCA sweep, five chunks)"
    if ensembled:
        r = max(p.n_replicas for p in d.points)
        title += f" — ensemble means over R={r} replicas"
    lines = [
        title,
        "",
        format_table(["y", "theta_CO", "theta_O", "theta_*", "poisoned"], body),
        "",
        f"transition estimates: y1 ~ {y1:.3f} (literature ~0.39), "
        f"y2 ~ {y2:.3f} (literature ~0.525)",
    ]
    if d.rsm_checks:
        lines.append("")
        lines.append("RSM verification points:")
        for p in d.rsm_checks:
            q = min(d.points, key=lambda pp: abs(pp.y - p.y))
            lines.append(
                f"  y={p.y:.3f}: RSM CO={p.theta_co:.3f} O={p.theta_o:.3f}  |  "
                f"PNDCA CO={q.theta_co:.3f} O={q.theta_o:.3f}"
            )
    return "\n".join(lines)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", type=int, default=50)
    parser.add_argument("--until", type=float, default=150.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--replicas", type=int, default=1)
    parser.add_argument(
        "--checkpoint-dir",
        help="periodic repro.ckpt/1 checkpoints + SIGINT/SIGTERM final flush",
    )
    a = parser.parse_args()
    print(phase_diagram_report(run_phase_diagram(
        side=a.side, until=a.until, seed=a.seed,
        n_replicas=a.replicas, checkpoint_dir=a.checkpoint_dir,
    )))
