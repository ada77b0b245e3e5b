"""Shared simulator infrastructure: observers, results, the base class.

All simulation algorithms (DMC and CA alike) share

* a bound :class:`~repro.core.compiled.CompiledModel`,
* a mutable :class:`~repro.core.state.Configuration`,
* explicit seeding,
* a *time mode* — ``"stochastic"`` draws every waiting-time increment
  from the negative-exponential distribution ``1 - exp(-N K t)`` (the
  paper's step 5); ``"deterministic"`` uses the fixed discretisation
  step ``1/(N K)`` per trial (the paper's "time discretisation of the
  ME" reading) — useful for variance-free curve comparisons,
* observers sampled on a fixed simulation-time grid,
* an optional event trace for the waiting-time correctness analyses.

Concrete algorithms implement :meth:`SimulatorBase._step_block`, which
advances the state by one algorithm-specific unit of work (a block of
RSM trials, a CA step, ...) and returns the number of trials attempted.
"""

from __future__ import annotations

import time as _wall
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from ..core.compiled import CompiledModel
from ..core.events import EventTrace
from ..core.lattice import Lattice
from ..core.model import Model
from ..core.rng import make_rng, types_from_uniforms
from ..core.state import Configuration
from ..obs.metrics import CountingGenerator, MetricsCollector, RunMetrics, current_metrics
from ..obs.trace import NULL_TRACER, Tracer

__all__ = ["Observer", "CoverageObserver", "SnapshotObserver", "SimulationResult", "SimulatorBase"]


class Observer(ABC):
    """Samples quantities on a fixed simulation-time grid.

    A simulator calls :meth:`sample` exactly once per grid time, in
    increasing order, passing the state *at the moment the grid time
    was crossed*.
    """

    def __init__(self, interval: float, t0: float = 0.0):
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        self.interval = float(interval)
        self.t0 = float(t0)
        self._k = 0  # grid points sampled so far

    @property
    def next_due(self) -> float:
        """Next grid time (computed multiplicatively: no float drift)."""
        return self.t0 + self._k * self.interval

    def start(self, sim: "SimulatorBase") -> None:
        """Hook called once before the run starts."""

    def maybe_sample(self, t: float, state: Configuration) -> None:
        """Sample at every grid point up to and including time ``t``."""
        while self.next_due <= t:
            self.sample(self.next_due, state)
            self._k += 1

    @abstractmethod
    def sample(self, t: float, state: Configuration) -> None:
        """Record one sample (state as of grid time ``t``)."""

    @abstractmethod
    def data(self) -> dict:
        """Collected data as plain arrays (merged into the result)."""

    # -- checkpoint support --------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe snapshot of the observer's mutable state.

        Subclasses that accumulate data extend the dict; restoring it
        via :meth:`load_state_dict` makes a resumed run's result carry
        the *complete* sampled series, identical to an uninterrupted
        run (asserted in ``tests/test_resilience.py``).
        """
        return {"k": self._k}

    def load_state_dict(self, d: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self._k = int(d["k"])


class CoverageObserver(Observer):
    """Records species coverages theta_X(t) on a uniform time grid."""

    def __init__(self, interval: float, species: Sequence[str] | None = None, t0: float = 0.0):
        super().__init__(interval, t0)
        self.species = tuple(species) if species is not None else None
        self._times: list[float] = []
        self._rows: list[np.ndarray] = []
        self._names: tuple[str, ...] = ()

    def start(self, sim: "SimulatorBase") -> None:
        """Resolve species codes before the run starts."""
        names = sim.model.species.names
        self._names = self.species if self.species is not None else names
        self._codes = np.array(
            [sim.model.species.code(n) for n in self._names], dtype=np.intp
        )
        self._n_all = len(names)

    def sample(self, t: float, state: Configuration) -> None:
        """Record one coverage row at grid time ``t``."""
        counts = np.bincount(state.array, minlength=self._n_all)
        self._times.append(t)
        self._rows.append(counts[self._codes] / state.lattice.n_sites)

    def data(self) -> dict:
        """Sampled grid times plus one coverage series per species."""
        times = np.array(self._times)
        if self._rows:
            block = np.vstack(self._rows)
        else:
            block = np.empty((0, len(self._names)))
        cov = {n: block[:, i] for i, n in enumerate(self._names)}
        return {"times": times, "coverage": cov}

    def state_dict(self) -> dict:
        """Sampled rows included, so a resumed series is complete."""
        return {
            "k": self._k,
            "times": list(self._times),
            "rows": [row.tolist() for row in self._rows],
        }

    def load_state_dict(self, d: dict) -> None:
        """Restore counter plus the already-sampled coverage rows."""
        self._k = int(d["k"])
        self._times = [float(t) for t in d["times"]]
        self._rows = [np.asarray(row, dtype=np.float64) for row in d["rows"]]


class SnapshotObserver(Observer):
    """Stores full configuration snapshots on a time grid (small lattices)."""

    def __init__(self, interval: float, t0: float = 0.0):
        super().__init__(interval, t0)
        self._times: list[float] = []
        self._states: list[np.ndarray] = []

    def sample(self, t: float, state: Configuration) -> None:
        """Store a copy of the configuration at grid time ``t``."""
        self._times.append(t)
        self._states.append(state.array.copy())

    def data(self) -> dict:
        """Snapshot times and the stacked configuration array."""
        return {
            "snapshot_times": np.array(self._times),
            "snapshots": np.array(self._states) if self._states else np.empty((0, 0)),
        }

    def state_dict(self) -> dict:
        """Stored snapshots included, so a resumed series is complete."""
        return {
            "k": self._k,
            "times": list(self._times),
            "states": [s.tolist() for s in self._states],
        }

    def load_state_dict(self, d: dict) -> None:
        """Restore counter plus the already-stored snapshots."""
        self._k = int(d["k"])
        self._times = [float(t) for t in d["times"]]
        self._states = [np.asarray(s, dtype=np.uint8) for s in d["states"]]


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    algorithm: str
    model_name: str
    lattice_shape: tuple[int, ...]
    seed: int | None
    final_time: float
    n_trials: int
    n_executed: int
    executed_per_type: np.ndarray
    wall_time: float
    final_state: Configuration
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    coverage: dict[str, np.ndarray] = field(default_factory=dict)
    events: EventTrace | None = None
    extra: dict = field(default_factory=dict)
    metrics: RunMetrics | None = None

    @property
    def mc_steps(self) -> float:
        """Trials per site: one MC step is ``N`` trials (paper, section 3)."""
        n = int(np.prod(self.lattice_shape))
        return self.n_trials / n

    @property
    def acceptance(self) -> float:
        """Fraction of trials that executed a reaction."""
        return self.n_executed / self.n_trials if self.n_trials else 0.0

    def summary(self) -> str:
        """One-paragraph human-readable summary of the run."""
        lines = [
            f"{self.algorithm} on {self.model_name} {self.lattice_shape}: "
            f"t={self.final_time:g}, {self.n_trials} trials "
            f"({self.mc_steps:.1f} MC steps), acceptance {self.acceptance:.3f}, "
            f"wall {self.wall_time:.2f}s"
        ]
        cov = self.final_state.coverages()
        lines.append("final coverages: " + ", ".join(f"{k}={v:.3f}" for k, v in cov.items()))
        return "\n".join(lines)


class SimulatorBase(ABC):
    """Base class for all simulation algorithms.

    Parameters
    ----------
    model, lattice:
        The model and the lattice to bind it to.
    seed:
        Seed for the run's random generator (or a Generator).
    initial:
        Starting configuration; defaults to the all-vacant state.
    time_mode:
        ``"stochastic"`` (exponential waiting times, default) or
        ``"deterministic"`` (fixed ``1/(N K)`` per trial).
    observers:
        Observers sampled during the run.
    record_events:
        Collect an :class:`EventTrace` of executed reactions.
    metrics:
        A :class:`~repro.obs.metrics.MetricsCollector` to record run
        metrics into; defaults to the ambient collector
        (:func:`repro.obs.metrics.current_metrics` — normally the
        zero-overhead null object).  When enabled, the run's random
        generator is wrapped in a transparent draw-counting proxy;
        the random stream itself is unchanged, so trajectories are
        bit-identical with metrics on or off.
    tracer:
        A :class:`~repro.obs.trace.Tracer` receiving the
        ``on_step``/``on_chunk``/``on_snapshot`` hooks; defaults to
        the no-op :data:`~repro.obs.trace.NULL_TRACER`.
    backend:
        Kernel backend for the execution hot paths — a name
        (``"numpy"``, ``"cnative"``, ``"auto"``), a
        :class:`~repro.backends.Backend`, or ``None`` for the ambient
        backend installed by :func:`~repro.backends.use_backend`
        (default ``numpy``).  An execution detail only: trajectories,
        RNG streams and checkpoints are bit-identical across backends.
    """

    #: short algorithm label, set by subclasses
    algorithm: str = "?"

    def __init__(
        self,
        model: Model,
        lattice: Lattice,
        seed: int | np.random.Generator | None = None,
        initial: Configuration | None = None,
        time_mode: str = "stochastic",
        observers: Iterable[Observer] = (),
        record_events: bool = False,
        metrics: MetricsCollector | None = None,
        tracer: Tracer | None = None,
        backend=None,
    ):
        if time_mode not in ("stochastic", "deterministic"):
            raise ValueError(f"unknown time mode {time_mode!r}")
        from ..backends import resolve_backend

        self.model = model
        self.lattice = lattice
        self.backend = resolve_backend(backend)
        #: the backend's resolved kernel table (execution hot paths)
        self.kernels = self.backend.kernel_set()
        self.compiled: CompiledModel = model.compile(lattice)
        if initial is None:
            # all-vacant by convention; models without a "*" species
            # start uniformly in their first species
            from ..core.species import EMPTY

            if EMPTY in model.species:
                self.state = Configuration.empty(lattice, model.species)
            else:
                self.state = Configuration.filled(
                    lattice, model.species, model.species.names[0]
                )
        else:
            if initial.lattice != lattice:
                raise ValueError("initial configuration is on a different lattice")
            self.state = initial.copy()
        self.seed = seed if isinstance(seed, int) or seed is None else None
        self.rng = make_rng(seed)
        self.metrics = metrics if metrics is not None else current_metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.metrics.enabled:
            # transparent delegating wrapper: same stream, counted draws
            self.rng = CountingGenerator(self.rng, self.metrics)  # type: ignore[assignment]
        self.time_mode = time_mode
        self.observers = list(observers)
        self.trace = EventTrace() if record_events else None
        self.time = 0.0
        self.n_trials = 0
        self.executed_per_type = np.zeros(model.n_types, dtype=np.int64)
        #: per-type attempted-trial totals (filled only when metrics on)
        self._attempted_per_type = np.zeros(model.n_types, dtype=np.int64)
        #: the backend's chunk visit and the state array it is bound to
        #: (see _visit_sites); the uniforms buffer it reads, grown on use
        self._visit_state: np.ndarray | None = None
        self._visit: Any = None
        self._uniforms = np.empty(0)

        #: rate of the per-trial waiting-time distribution, N * K
        self.nk_rate = lattice.n_sites * self.compiled.total_rate

    # ------------------------------------------------------------------
    @property
    def n_executed(self) -> int:
        """Total executed reactions so far."""
        return int(self.executed_per_type.sum())

    def time_increment(self, n_trials: int) -> float:
        """Elapsed simulation time for a number of trials.

        Stochastic mode draws the sum of ``n_trials`` exponentials
        (a Gamma variate — one draw instead of ``n_trials``);
        deterministic mode returns ``n_trials / (N K)``.
        """
        if n_trials <= 0:
            return 0.0
        if self.time_mode == "stochastic":
            return float(self.rng.gamma(shape=n_trials, scale=1.0 / self.nk_rate))
        return n_trials / self.nk_rate

    def _notify(self) -> None:
        """Let observers sample every grid point crossed so far."""
        tracer = self.tracer
        if tracer.enabled and self.observers:
            k0 = sum(o._k for o in self.observers)
            for obs in self.observers:
                obs.maybe_sample(self.time, self.state)
            if sum(o._k for o in self.observers) > k0:
                tracer.on_snapshot(self.time)
            return
        for obs in self.observers:
            obs.maybe_sample(self.time, self.state)

    #: the dispatch kernel a chunk visit runs (engines with visits set it)
    _visit_kernel = "run_trials_sequential"

    def _visit_sites(self, sites: np.ndarray) -> int:
        """One trial at each of ``sites``: a chunk visit; returns the
        number of trials that executed.

        The uniforms that pick the reaction types are drawn into the
        engine's buffer (the very draws :func:`~repro.core.rng.draw_types`
        makes) and passed with ``sites`` to the backend's bound visit
        (:meth:`~repro.backends.Backend.bind_visit`).  The visit is bound
        on first use and again whenever ``state.array`` is a different
        array from the one it was bound to: ``ParallelPNDCA`` rebinds it
        into shared memory after construction.
        """
        n = sites.size
        if self._uniforms.size < n:
            self._uniforms = np.empty(n)
        u = self.rng.random(out=self._uniforms[:n])
        if self._visit_state is not self.state.array:
            self._visit_state = self.state.array
            self._visit = self.backend.bind_visit(
                self.state.array, self.compiled, self.executed_per_type,
                self._visit_kernel,
            )
        executed = self._visit(sites, u)
        if self.metrics.enabled:
            self._record_attempts(types_from_uniforms(self.compiled.type_cum, u))
        return executed

    def _record_attempts(self, types: np.ndarray) -> None:
        """Accumulate per-type attempted-trial counts (metrics path only)."""
        self._attempted_per_type += np.bincount(
            types, minlength=self.model.n_types
        )

    # ------------------------------------------------------------------
    # checkpoint / resume (see repro.resilience.checkpoint, DESIGN.md §10)
    # ------------------------------------------------------------------
    def _extra_checkpoint_state(self) -> dict:
        """Algorithm-specific mutable state (JSON-safe); default none.

        Subclasses with run-loop state beyond the base fields override
        this together with :meth:`_restore_extra` (e.g. PNDCA's
        partition-cycle counter).
        """
        return {}

    def _restore_extra(self, extra: dict) -> None:
        """Restore the dict produced by :meth:`_extra_checkpoint_state`."""

    def checkpoint_payload(self) -> dict:
        """Everything ``run()`` mutates, as a JSON-safe ``repro.ckpt/1`` payload."""
        from ..resilience.checkpoint import (
            encode_array,
            engine_fingerprint,
            rng_state,
        )

        return {
            "kind": "simulator",
            "algorithm": self.algorithm,
            "model": self.model.name,
            "lattice": list(self.lattice.shape),
            "time_mode": self.time_mode,
            "fingerprint": engine_fingerprint(self),
            "seed": self.seed,
            "time": float(self.time),
            "n_trials": int(self.n_trials),
            "executed_per_type": [int(x) for x in self.executed_per_type],
            "attempted_per_type": [int(x) for x in self._attempted_per_type],
            "state": encode_array(self.state.array),
            "rng": rng_state(self.rng),
            "extra": self._extra_checkpoint_state(),
            "observers": [o.state_dict() for o in self.observers],
        }

    def restore_payload(self, payload: dict) -> None:
        """Restore a checkpoint payload into this (matching) engine."""
        from ..resilience.checkpoint import (
            CheckpointMismatchError,
            decode_array,
            engine_fingerprint,
            restore_rng_state,
        )

        if payload.get("kind") != "simulator":
            raise CheckpointMismatchError(
                f"checkpoint kind {payload.get('kind')!r} cannot restore "
                f"into a sequential simulator"
            )
        fp = engine_fingerprint(self)
        if payload.get("fingerprint") != fp:
            raise CheckpointMismatchError(
                f"checkpoint fingerprint {payload.get('fingerprint')!r} does "
                f"not match this engine ({fp}: {self.algorithm} / "
                f"{self.model.name} / {self.lattice.shape}) — it was taken "
                f"from a different model, lattice or algorithm configuration"
            )
        array = decode_array(payload["state"])
        self.state.array[:] = array  # in place: keeps shared-memory views
        self.time = float(payload["time"])
        self.n_trials = int(payload["n_trials"])
        self.executed_per_type[:] = payload["executed_per_type"]
        self._attempted_per_type[:] = payload["attempted_per_type"]
        restore_rng_state(self.rng, payload["rng"])
        self._restore_extra(payload.get("extra", {}))
        obs_states = payload.get("observers", [])
        if obs_states:
            if len(obs_states) != len(self.observers):
                raise CheckpointMismatchError(
                    f"checkpoint carries {len(obs_states)} observer states, "
                    f"engine has {len(self.observers)} observers"
                )
            for obs, d in zip(self.observers, obs_states):
                obs.load_state_dict(d)

    def resume(self, path) -> "SimulatorBase":
        """Restore from a checkpoint file; returns ``self``.

        Construct the engine exactly as for the original run (model,
        lattice, partition, strategy, observers — the seed is
        irrelevant, the restored bit-generator state replaces it), then
        resume and continue with ``run(until=...)``: the continuation
        is bit-identical to the uninterrupted run.
        """
        from ..resilience.checkpoint import load_checkpoint

        self.restore_payload(load_checkpoint(path))
        return self

    # ------------------------------------------------------------------
    @abstractmethod
    def _step_block(self, until: float) -> int:
        """Advance by one unit of work, not (far) beyond ``until``.

        Must update ``self.time``, ``self.n_trials``,
        ``self.executed_per_type`` and the state; returns the number of
        trials attempted (0 signals that no progress is possible).
        """

    def run(
        self,
        until: float,
        max_steps: int | None = None,
        checkpoint=None,
    ) -> SimulationResult:
        """Simulate until the given simulation time (or ``max_steps`` blocks).

        ``checkpoint`` is an optional
        :class:`~repro.resilience.checkpoint.Checkpointer`, the only way
        a run checkpoints.  Checkpoints are written at step-block
        boundaries — the consistent points of every algorithm.
        """
        if until <= self.time:
            raise ValueError(f"until={until} is not beyond current time {self.time}")
        for obs in self.observers:
            obs.start(self)
        m = self.metrics
        tracer = self.tracer
        wall0 = _wall.perf_counter()
        steps = 0
        trials0 = executed0 = 0
        if checkpoint is not None:
            checkpoint.start(self)
        try:
            with m.phase("run"):
                self._notify()
                while self.time < until:
                    if m.enabled:
                        trials0 = self.n_trials
                        executed0 = self.n_executed
                    n = self._step_block(until)
                    self._notify()
                    steps += 1
                    if m.enabled:
                        m.inc("steps")
                        m.inc("trials.attempted", self.n_trials - trials0)
                        m.inc("trials.executed", self.n_executed - executed0)
                    tracer.on_step(steps, self.time)
                    if checkpoint is not None:
                        checkpoint.after_step(self)
                    if n == 0:
                        break  # absorbing state or no work possible
                    if max_steps is not None and steps >= max_steps:
                        break
        finally:
            if checkpoint is not None:
                checkpoint.finish(self)
        wall = _wall.perf_counter() - wall0
        return self._result(wall)

    def _finalize_metrics(self) -> RunMetrics | None:
        """Write derived totals/rates as gauges; return the snapshot."""
        m = self.metrics
        if not m.enabled:
            return None
        m.set_gauge(
            "acceptance", self.n_executed / self.n_trials if self.n_trials else 0.0
        )
        m.set_gauge("sim.final_time", self.time)
        for i, rt in enumerate(self.model.reaction_types):
            attempted = int(self._attempted_per_type[i])
            executed = int(self.executed_per_type[i])
            m.set_gauge(f"executed.{rt.name}", executed)
            if attempted:
                m.set_gauge(f"attempted.{rt.name}", attempted)
                m.set_gauge(f"acceptance.{rt.name}", executed / attempted)
        return m.snapshot()

    def _result(self, wall: float) -> SimulationResult:
        data: dict = {}
        for obs in self.observers:
            data.update(obs.data())
        return SimulationResult(
            algorithm=self.algorithm,
            model_name=self.model.name,
            lattice_shape=self.lattice.shape,
            seed=self.seed,
            final_time=self.time,
            n_trials=self.n_trials,
            n_executed=self.n_executed,
            executed_per_type=self.executed_per_type.copy(),
            wall_time=wall,
            final_state=self.state,
            times=data.pop("times", np.empty(0)),
            coverage=data.pop("coverage", {}),
            events=self.trace,
            extra=data,
            metrics=self._finalize_metrics(),
        )
