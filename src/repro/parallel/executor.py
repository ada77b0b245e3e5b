"""Real chunk-parallel execution over shared memory (multiprocessing).

The paper's parallelism claim is that all sites of a conflict-free
chunk can be updated simultaneously with *no* synchronisation beyond a
per-chunk barrier.  This module demonstrates it for real: the lattice
state lives in a ``multiprocessing.shared_memory`` block, worker
processes attach to it once, and each chunk update is split into
per-worker slices executed concurrently — lock-free, because the
non-overlap rule guarantees the slices touch disjoint sites.

A run is bit-identical to the serial PNDCA given the same
master-drawn randoms.  The performance side of Fig. 7 is measured on
this executor by the ``parallel-pndca-500`` workload of
``benchmarks/perf`` (500x500 ZGB, one worker per CPU), next to the
calibrated machine model's prediction
(:mod:`repro.parallel.machine`).

The workers are the slots of a
:class:`~repro.resilience.supervisor.Supervisor`, and a lost slice
walks the shared :class:`~repro.resilience.supervisor.RecoveryLadder`.

Usage::

    with ParallelChunkExecutor(model, lattice, n_workers=4) as ex:
        sim = ParallelPNDCA(model, lattice, partition=p5, executor=ex, seed=1)
        result = sim.run(until=100.0)
"""

from __future__ import annotations

import time as _time
from functools import partial
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

from ..backends import resolve_backend
from ..core.lattice import Lattice
from ..core.model import Model
from ..obs.metrics import NULL_METRICS, MetricsCollector
from ..obs.trace import NULL_TRACER, Tracer
from ..resilience.supervisor import RecoveryLadder, Supervisor, WorkerInitError
from .. import ca as _ca

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.chaos import ChaosMonkey

__all__ = ["ParallelChunkExecutor", "ParallelPNDCA"]

#: the worker's shared-memory mapping, kept open for the process lifetime
_worker_shm = None


def _init_worker(
    shm_name: str,
    n_sites: int,
    model: Model,
    lattice: Lattice,
    backend_name: str = "numpy",
):
    """Worker setup: attach to the shared state and compile the model.

    Returns the worker's task handler, :func:`_run_slice` bound to the
    shared state.  Backends are not picklable (a compiled one holds
    library handles), so the master ships only the backend *name*;
    each worker re-resolves it locally — quietly, since the master
    already warned once if the requested backend had to fall back.
    """
    global _worker_shm
    _worker_shm = shared_memory.SharedMemory(name=shm_name)
    state = np.ndarray((n_sites,), dtype=np.uint8, buffer=_worker_shm.buf)
    try:
        kernels = resolve_backend(backend_name, warn=False).kernel_set()
    except ValueError:
        # a custom backend registered only in the master is invisible
        # to a spawn-context worker; degrade to the reference kernels
        # rather than fail the setup (results are identical by contract)
        kernels = resolve_backend("numpy").kernel_set()
    return partial(_run_slice, state, model.compile(lattice), kernels)


def _run_slice(state, compiled, kernels, job) -> tuple[np.ndarray, float]:
    """Execute a conflict-free ``(sites, types)`` trial slice.

    Returns the per-type executed counts plus the slice's wall time —
    the per-worker timing the master aggregates at the chunk barrier.
    The serial rung runs whole chunks through it in-process.
    """
    sites, types = job
    w0 = _time.perf_counter()
    counts = np.zeros(compiled.n_types, dtype=np.int64)
    kernels.run_trials_batch(state, compiled, sites, types, counts=counts)
    return counts, _time.perf_counter() - w0


class ParallelChunkExecutor:
    """Supervised worker slots sharing the lattice state.

    Parameters
    ----------
    model, lattice:
        The bound pair (workers compile their own kernel tables).
    n_workers:
        Number of worker processes (the modelled ``p``).
    context:
        Multiprocessing start method; ``None`` (default) auto-selects
        ``"fork"`` where the platform offers it (the cheapest on
        Linux) and falls back to ``"spawn"`` elsewhere — everything
        passed to workers is picklable, so both work.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsCollector`; when
        enabled, per-worker slice wall times and per-chunk barrier
        times are recorded (``executor.slice.wall`` /
        ``executor.chunk.wall`` histograms).  A :class:`ParallelPNDCA`
        bound to this executor shares its own collector automatically.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; recovery actions
        (retry, serial fallback) are emitted as ``on_recovery`` events.
    chunk_timeout:
        Per-chunk deadline in seconds, or ``None`` (default) for none.
        A worker that dies is recovered either way; the deadline also
        recovers a slice that hangs.
    max_retries:
        Recovery attempts per chunk before degrading to in-process
        serial execution.
    chaos:
        Optional :class:`~repro.resilience.chaos.ChaosMonkey` polled on
        channel ``"chunk"`` before each dispatch (test harness only).
    backend:
        Kernel backend for slice execution: a name, a
        :class:`~repro.backends.Backend`, or ``None`` (default) for the
        ambient selection (see :func:`repro.backends.use_backend`).
        Workers receive the resolved backend's *name* and re-resolve it
        locally; the serial-degradation rung uses the same backend, so
        a degraded run executes exactly the kernels a healthy one does.

    Recovery ladder (DESIGN.md §10.2)
    ---------------------------------
    Every chunk is snapshotted first (one ``N``-byte copy).  A lost
    slice — a dead worker, a deadline miss, an exception — restores the
    snapshot once every slot of the attempt has replied or been killed,
    then the chunk is retried after the shared backoff with only the
    lost slots respawned.  After ``max_retries`` losses the executor
    runs serially, through the selected backend, for good.  Slices are
    disjoint and all randoms master-drawn, so every rung is
    bit-identical (``executor.retries`` / ``executor.respawns`` /
    ``executor.degraded`` counters, ``on_recovery`` trace events).

    Lifecycle
    ---------
    The shared-memory segment is released (closed *and* unlinked) by
    :meth:`close` — also on construction failure (a bad ``context``
    name does not leak the segment) and, as a safety net, from
    ``__del__`` during interpreter shutdown.  A worker whose setup
    raises fails closed: :class:`~repro.resilience.supervisor.WorkerInitError`
    carries its message out of the first :meth:`execute_chunk` that
    reaches it, after the executor has closed itself.  After
    ``close()`` every state access (:attr:`state`, :meth:`load_state`,
    :meth:`execute_chunk`) raises ``RuntimeError``: the old mapping is
    gone, and touching a stale view of it would crash the interpreter
    outright.
    """

    def __init__(
        self,
        model: Model,
        lattice: Lattice,
        n_workers: int = 2,
        context: str | None = None,
        metrics: MetricsCollector | None = None,
        tracer: Tracer | None = None,
        chunk_timeout: float | None = None,
        max_retries: int = 2,
        chaos: "ChaosMonkey | None" = None,
        backend=None,
    ):
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError(f"chunk_timeout must be > 0, got {chunk_timeout}")
        self._ladder = RecoveryLadder(max_retries)
        self.model = model
        self.lattice = lattice
        self.n_workers = n_workers
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.chunk_timeout = chunk_timeout
        self.max_retries = max_retries
        self.chaos = chaos
        self.backend = resolve_backend(backend)
        self._kernels = self.backend.kernel_set()
        self._compiled_master = None
        # mark closed until fully constructed so that __del__ after a
        # failed __init__ never touches half-built resources
        self._closed = True
        self._pool = None
        self._shm = shared_memory.SharedMemory(create=True, size=lattice.n_sites)
        try:
            self._state: np.ndarray | None = np.ndarray(
                (lattice.n_sites,), dtype=np.uint8, buffer=self._shm.buf
            )
            self._state[:] = 0
            self._pool = Supervisor(
                n_workers,
                _init_worker,
                (
                    self._shm.name,
                    lattice.n_sites,
                    model,
                    lattice,
                    self.backend.name,
                ),
                context=context,
            )
        except BaseException:
            # view or worker creation failed: the segment must not outlive us
            self._release_shm()
            raise
        self.context = self._pool.context
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def state(self) -> np.ndarray:
        """The shared lattice state (raises once the executor is closed)."""
        if self._closed or self._state is None:
            raise RuntimeError(
                "executor is closed: the shared-memory state no longer exists"
            )
        return self._state

    def load_state(self, array: np.ndarray) -> None:
        """Copy a configuration into the shared state.

        The shape *and* dtype must match: silently casting (say) a
        float array into the uint8 shared buffer would truncate every
        value without a trace.
        """
        state = self.state  # raises when closed
        if array.shape != state.shape:
            raise ValueError(
                f"state shape mismatch: got {array.shape}, "
                f"shared state is {state.shape}"
            )
        if array.dtype != state.dtype:
            raise ValueError(
                f"state dtype mismatch: got {array.dtype}, "
                f"shared state is {state.dtype} (cast explicitly if intended)"
            )
        state[:] = array

    @property
    def degraded(self) -> bool:
        """True once the executor has fallen back to serial execution."""
        return self._ladder.degraded

    def execute_chunk(self, sites: np.ndarray, types: np.ndarray) -> np.ndarray:
        """Execute a conflict-free chunk batch across the workers.

        The batch is split into ``n_workers`` contiguous slices; each
        worker executes its slice against the shared state without
        locks (disjoint neighborhoods).  Blocks until all slices are
        done (the per-chunk barrier); a lost slice walks the recovery
        ladder (see the class docstring).  Returns the per-type
        executed counts (length ``n_types``).
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        n = len(sites)
        n_types = len(self.model.reaction_types)
        if n == 0:
            return np.zeros(n_types, dtype=np.int64)
        if self._ladder.degraded:
            return self._exec_serial(sites, types)
        bounds = np.linspace(0, n, self.n_workers + 1).astype(int)
        jobs = [
            (sites[a:b], types[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]
        m = self.metrics
        tracer = self.tracer
        # consistent pre-chunk snapshot: restoring it rolls back any
        # slice that completed before a co-slice failed
        pre = self._state.copy()
        failures = 0
        while True:
            try:
                counts, error, lost = self._dispatch(jobs)
            except WorkerInitError:
                self.close()
                raise
            if error is None:
                return counts
            failures += 1
            m.inc("executor.retries")
            if tracer.enabled:
                tracer.on_recovery(
                    "chunk-retry", {"attempt": failures, "error": error}
                )
            # every slot of the failed attempt has replied or been
            # killed: no slice can write after the restore
            self._state[:] = pre
            delay = self._ladder.after_failure(failures)
            if delay is None:
                break
            _time.sleep(delay)
            for wid in lost:
                self._pool.respawn(wid)
                m.inc("executor.respawns")
        # out of retries: degrade to in-process serial execution —
        # bit-identical (the serial batch equals the union of slices),
        # just not parallel.  Sticky for the executor's lifetime.
        m.inc("executor.degraded")
        if tracer.enabled:
            tracer.on_recovery("serial-fallback", {"after_retries": self.max_retries})
        return self._exec_serial(sites, types)

    def _dispatch(
        self, jobs: list[tuple]
    ) -> tuple[np.ndarray | None, str | None, list[int]]:
        """One attempt at the per-chunk barrier.

        Returns ``(counts, None, [])`` when every slice replied, else
        ``(None, error, lost)`` with the failure's name and the slots
        that died or were killed at the deadline.  Either way every slot
        of the attempt has replied or been killed when it returns.
        """
        pool = self._pool
        w0 = _time.perf_counter()
        delay, die = (0.0, False) if self.chaos is None else self.chaos.arm("chunk")
        pool.submit(0, jobs[0], delay=delay, die=die)
        for wid in range(1, len(jobs)):
            pool.submit(wid, jobs[wid])
        results: list[tuple[np.ndarray, float]] = []
        error: str | None = None
        lost: list[int] = []
        waiting = len(jobs)
        while waiting:
            for wid, kind, value in pool.wait(None, deadline=self.chunk_timeout):
                waiting -= 1
                if kind == "ok":
                    results.append(value)
                elif kind == "err":  # the slice raised; its worker lives on
                    error = error or value.partition(":")[0]
                else:  # "died", or "late" and killed: the slot is lost
                    error = error or ("TimeoutError" if kind == "late" else "WorkerDied")
                    lost.append(wid)
        if error is not None:
            return None, error, lost
        m = self.metrics
        if m.enabled:
            # per-worker slice timings, aggregated at the barrier
            m.observe("executor.chunk.wall", _time.perf_counter() - w0)
            m.inc("executor.chunks")
            for _, slice_wall in results:
                m.observe("executor.slice.wall", slice_wall)
        return np.sum([c for c, _ in results], axis=0).astype(np.int64), None, []

    def _exec_serial(self, sites: np.ndarray, types: np.ndarray) -> np.ndarray:
        """In-process execution of one chunk batch (the last rung), through
        the *selected* backend, so a run that degrades mid-way executes
        the very kernels the workers did."""
        if self._compiled_master is None:
            self._compiled_master = self.model.compile(self.lattice)
        counts, wall = _run_slice(
            self.state, self._compiled_master, self._kernels, (sites, types)
        )
        m = self.metrics
        if m.enabled:
            m.observe("executor.chunk.wall", wall)
            m.inc("executor.chunks")
            m.inc("executor.serial_chunks")
        return counts

    # ------------------------------------------------------------------
    def _release_shm(self) -> None:
        """Drop the state view, close and unlink the segment (idempotent)."""
        self._state = None
        shm = getattr(self, "_shm", None)
        if shm is None:
            return
        self._shm = None
        try:
            shm.close()
        except Exception:  # pragma: no cover - interpreter-shutdown safety
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass
        except Exception:  # pragma: no cover - interpreter-shutdown safety
            pass

    def close(self) -> None:
        """Stop the workers and release the shared-memory block.

        Idempotent, and safe to call from ``__del__`` during
        interpreter shutdown: a partially torn-down supervisor or
        module never prevents the segment from being unlinked.
        """
        if getattr(self, "_closed", True) and getattr(self, "_pool", None) is None:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.close()
            except Exception:  # pragma: no cover - shutdown safety net
                pass
        self._release_shm()

    def __enter__(self) -> "ParallelChunkExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            close = getattr(self, "close", None)
            if close is not None:
                close()
        except BaseException:
            # finalizers run during interpreter shutdown, where modules
            # may already be torn down and even SystemExit/KeyboardInterrupt
            # surface as collateral — nothing may escape a __del__
            pass


class ParallelPNDCA(_ca.PNDCA):
    """PNDCA whose chunk updates run on a :class:`ParallelChunkExecutor`.

    All random draws happen in the master process, so a run is
    bit-identical to the serial :class:`~repro.ca.pndca.PNDCA` with the
    same seed and strategy — the executor only changes *who executes*.
    """

    def __init__(self, *args, executor: ParallelChunkExecutor, **kwargs):
        super().__init__(*args, **kwargs)
        if executor.lattice != self.lattice:
            raise ValueError("executor is bound to a different lattice")
        if self.uses_sequential_fallback:
            raise ValueError(
                "parallel execution requires a conflict-free partition"
            )
        self.executor = executor
        # share the run's collector so slice/barrier timings land in it
        if executor.metrics is NULL_METRICS and self.metrics.enabled:
            executor.metrics = self.metrics
        # likewise the tracer, so recovery events land in the run's trace
        if executor.tracer is NULL_TRACER and self.tracer.enabled:
            executor.tracer = self.tracer
        executor.load_state(self.state.array)
        # rebind the configuration onto the shared-memory array so that
        # observers and results see the workers' writes
        self.state.array = executor.state
        self.algorithm = f"ParallelPNDCA[p={executor.n_workers},m={self.partition.m}]"

    def _visit_chunk(self, chunk: np.ndarray, index: int = -1) -> None:
        from ..core.rng import draw_types

        types = draw_types(self.rng, self.compiled.type_cum, chunk.size)
        counts = self.executor.execute_chunk(chunk, types)
        self.executed_per_type += counts
        self.n_trials += chunk.size
        self.time += self.time_increment(chunk.size)
        m = self.metrics
        if m.enabled:
            self._record_attempts(types)
            executed = int(counts.sum())
            m.inc("pndca.chunk.visits")
            m.observe("pndca.chunk.size", chunk.size)
            m.observe("pndca.chunk.occupancy", chunk.size / self.lattice.n_sites)
            if chunk.size:
                m.observe("pndca.chunk.utilisation", executed / chunk.size)
        self.tracer.on_chunk(index, chunk.size, self.time)
        self._notify()

    def _result(self, wall: float):
        # the live state is a view into the executor's shared memory,
        # which dies when the executor closes — hand the caller a copy
        # that outlives it (the simulator itself keeps the shared view
        # so further run() calls stay parallel)
        res = super()._result(wall)
        res.final_state = res.final_state.copy()
        return res
