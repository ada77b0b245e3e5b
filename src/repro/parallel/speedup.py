"""Speedup experiment drivers: calibration and the Fig. 7 surface.

Bridges the real kernels and the machine model:

* :func:`measure_t_trial` times the package's actual vectorised chunk
  kernel on a representative workload, yielding the ``t_trial``
  constant of a :class:`~repro.parallel.machine.MachineSpec` (so the
  modelled speedups rest on a *measured* compute term);
* :func:`measure_acceptance` estimates the trial acceptance ratio of a
  workload (the model's update-traffic term);
* :func:`fig7_surface` produces the speedup table of the paper's
  Fig. 7 from a calibrated spec.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from ..backends import resolve_backend
from ..core.lattice import Lattice
from ..core.model import Model
from ..core.rng import draw_types, make_rng
from ..partition.tilings import five_chunk_partition
from .machine import DEFAULT_2003, MachineSpec, speedup_surface

__all__ = [
    "measure_t_trial",
    "measure_acceptance",
    "calibrated_spec",
    "fig7_surface",
]


def _warmed_state(model: Model, lattice: Lattice, seed: int, warm_steps: int = 20):
    """A lightly equilibrated state (so acceptance is representative)."""
    from ..ca.pndca import PNDCA

    p = five_chunk_partition(lattice)
    sim = PNDCA(model, lattice, seed=seed, partition=p, strategy="ordered")
    sim.run(until=np.inf, max_steps=warm_steps)
    return sim.state, p


def measure_t_trial(
    model: Model,
    lattice: Lattice,
    seed: int = 0,
    repeats: int = 20,
) -> float:
    """Measured seconds per trial of the vectorised chunk kernel.

    Times ``run_trials_batch`` of the *ambient* kernel backend (see
    :func:`repro.backends.use_backend`) over the chunks of the
    five-chunk partition on a lightly equilibrated state and returns
    the median per-trial time — so the modelled speedups are calibrated
    against the implementation tier a run would actually execute.
    """
    state, partition = _warmed_state(model, lattice, seed)
    kernels = resolve_backend(None).kernel_set()
    comp = model.compile(lattice)
    rng = make_rng(seed + 1)
    per_trial: list[float] = []
    scratch = state.array.copy()
    for _ in range(repeats):
        for chunk in partition.chunks:
            types = draw_types(rng, comp.type_cum, chunk.size)
            t0 = time.perf_counter()
            kernels.run_trials_batch(scratch, comp, chunk, types)
            per_trial.append((time.perf_counter() - t0) / chunk.size)
    return float(np.median(per_trial))


def measure_acceptance(
    model: Model,
    lattice: Lattice,
    seed: int = 0,
    steps: int = 50,
) -> float:
    """Empirical acceptance ratio of PNDCA trials on a warmed state."""
    from ..ca.pndca import PNDCA

    p = five_chunk_partition(lattice)
    sim = PNDCA(model, lattice, seed=seed, partition=p, strategy="ordered")
    sim.run(until=np.inf, max_steps=steps)
    return sim.n_executed / sim.n_trials if sim.n_trials else 0.0


def calibrated_spec(
    model: Model,
    lattice: Lattice,
    seed: int = 0,
    base: MachineSpec = DEFAULT_2003,
) -> MachineSpec:
    """A machine spec with measured ``t_trial``/``acceptance``.

    Latency/bandwidth constants stay at the (documented) 2003-era
    values of ``base`` — they describe the *network*, which does not
    exist here; only the compute terms are measurable.
    """
    return dataclasses.replace(
        base,
        t_trial=measure_t_trial(model, lattice, seed),
        acceptance=measure_acceptance(model, lattice, seed),
    )


def fig7_surface(
    spec: MachineSpec | None = None,
    sides: list[int] | None = None,
    ps: list[int] | None = None,
    m: int = 5,
) -> tuple[list[int], list[int], np.ndarray]:
    """The Fig. 7 speedup table ``T(1,N)/T(p,N)``.

    Returns ``(sides, ps, surface)`` with ``surface[i, j]`` the modelled
    speedup at lattice side ``sides[i]`` and ``ps[j]`` processors.
    Defaults reproduce the paper's axes: sides 200..1000, p = 2..10.
    """
    spec = spec or DEFAULT_2003
    sides = sides or [200, 300, 400, 500, 600, 700, 800, 900, 1000]
    ps = ps or list(range(2, 11))
    return sides, ps, speedup_surface(spec, sides, ps, m)
