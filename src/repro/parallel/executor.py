"""Real chunk-parallel execution over shared memory (multiprocessing).

The paper's parallelism claim is that all sites of a conflict-free
chunk can be updated simultaneously with *no* synchronisation beyond a
per-chunk barrier.  This module demonstrates it for real: the lattice
state lives in a ``multiprocessing.shared_memory`` block, worker
processes attach to it once, and each chunk update is split into
per-worker slices executed concurrently — lock-free, because the
non-overlap rule guarantees the slices touch disjoint sites.

A second segment, the trial stream, holds one chunk's sites and the
master-drawn uniforms.  The master copies them in once per chunk, so
what crosses a worker's pipes is only the slice bounds ``(a, b)`` out
and a ``(counts, wall)`` reply back, whatever the chunk's size; each
worker maps its uniforms to reaction types itself.  A run is
bit-identical to the serial PNDCA given the same master-drawn
randoms.  The performance side of Fig. 7 is measured on
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

import math
import time as _time
from functools import partial
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

from ..backends import resolve_backend
from ..core.lattice import Lattice
from ..core.model import Model
from ..core.rng import types_from_uniforms
from ..obs.metrics import NULL_METRICS, MetricsCollector
from ..obs.trace import NULL_TRACER, Tracer
from ..resilience.supervisor import RecoveryLadder, Supervisor, WorkerInitError
from .. import ca as _ca

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.chaos import ChaosMonkey

__all__ = ["ParallelChunkExecutor", "ParallelPNDCA"]

#: the worker's shared-memory mappings, kept open for the process lifetime
_worker_shm = None


def _stream_views(buf, n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """The trial stream's ``n_sites`` sites, then ``n_sites`` uniforms."""
    sites = np.ndarray((n_sites,), dtype=np.intp, buffer=buf)
    u = np.ndarray((n_sites,), dtype=np.float64, buffer=buf, offset=sites.nbytes)
    return sites, u


def _init_worker(
    shm_name: str,
    stream_name: str,
    n_sites: int,
    model: Model,
    lattice: Lattice,
    backend_name: str = "numpy",
):
    """Worker setup: attach to the shared state and the trial stream,
    compile the model and bind the backend's chunk visit to them.

    Returns the worker's task handler, :func:`_run_slice` bound to the
    visit, its counts buffer and the stream.  Backends are not
    picklable (a compiled one holds library handles), so the master
    ships only the backend *name*; each worker re-resolves it locally —
    quietly, since the master already warned once if the requested
    backend had to fall back.
    """
    global _worker_shm
    _worker_shm = (
        shared_memory.SharedMemory(name=shm_name),
        shared_memory.SharedMemory(name=stream_name),
    )
    state = np.ndarray((n_sites,), dtype=np.uint8, buffer=_worker_shm[0].buf)
    sites, u = _stream_views(_worker_shm[1].buf, n_sites)
    try:
        backend = resolve_backend(backend_name, warn=False)
    except ValueError:
        # a custom backend registered only in the master is invisible
        # to a spawn-context worker; degrade to the reference kernels
        # rather than fail the setup (results are identical by contract)
        backend = resolve_backend("numpy")
    compiled = model.compile(lattice)
    counts = np.zeros(compiled.n_types, dtype=np.int64)
    visit = backend.bind_visit(state, compiled, counts, "run_trials_batch", u)
    return partial(_run_slice, visit, counts, sites)


def _run_slice(visit, counts, sites, job) -> tuple[np.ndarray, float]:
    """Execute trials ``a:b`` of the trial stream, ``job = (a, b)``.

    One bound visit maps the slice's uniforms to reaction types and
    runs the conflict-free batch.  Returns the per-type executed counts
    plus the slice's wall time — the per-worker timing the master
    aggregates at the chunk barrier.
    """
    a, b = job
    w0 = _time.perf_counter()
    counts[:] = 0
    visit(sites[a:b], a)
    return counts.copy(), _time.perf_counter() - w0


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
    Both shared-memory segments, the state and the trial stream, are
    released (closed *and* unlinked) by :meth:`close` — also on
    construction failure (a bad ``context`` name leaks neither) and, as
    a safety net, from ``__del__`` during interpreter shutdown.  A
    worker whose setup raises fails closed:
    :class:`~repro.resilience.supervisor.WorkerInitError`
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
        if chunk_timeout is not None and not (
            math.isfinite(chunk_timeout) and chunk_timeout > 0
        ):
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
        #: the serial rung's bound visit and counts, bound on first use
        self._serial: tuple | None = None
        # mark closed until fully constructed so that __del__ after a
        # failed __init__ never touches half-built resources
        self._closed = True
        self._pool = None
        self._stream_shm = None
        self._shm = shared_memory.SharedMemory(create=True, size=lattice.n_sites)
        try:
            self._state: np.ndarray | None = np.ndarray(
                (lattice.n_sites,), dtype=np.uint8, buffer=self._shm.buf
            )
            self._state[:] = 0
            # the trial stream: intp sites, then float64 uniforms
            self._stream_shm = shared_memory.SharedMemory(
                create=True, size=16 * lattice.n_sites
            )
            self._sites, self._uniforms = _stream_views(
                self._stream_shm.buf, lattice.n_sites
            )
            self._pool = Supervisor(
                n_workers,
                _init_worker,
                (
                    self._shm.name,
                    self._stream_shm.name,
                    lattice.n_sites,
                    model,
                    lattice,
                    self.backend.name,
                ),
                context=context,
            )
        except BaseException:
            # view or worker creation failed: no segment may outlive us
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

    def execute_chunk(self, sites: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Execute a conflict-free chunk batch across the workers.

        ``uniforms`` are the master-drawn ``[0, 1)`` variates that pick
        each trial's reaction type (see
        :func:`~repro.core.rng.types_from_uniforms`).  Both arrays are
        copied into the trial stream, and the batch is split into
        ``n_workers`` contiguous slices; each worker maps and executes
        its slice against the shared state without locks (disjoint
        neighborhoods).  Blocks until all slices are done (the
        per-chunk barrier); a lost slice walks the recovery ladder (see
        the class docstring).  Returns the per-type executed counts
        (length ``n_types``).

        Malformed input raises ``ValueError`` before anything is
        written or dispatched, so it never reaches the ladder.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        sites, uniforms = np.asarray(sites), np.asarray(uniforms)
        if sites.ndim != 1 or uniforms.shape != sites.shape:
            raise ValueError(
                f"chunk input mismatch: sites {sites.shape} and uniforms "
                f"{uniforms.shape} must be 1-d and of equal length"
            )
        n = len(sites)
        if sites.dtype.kind not in "iu" or uniforms.dtype.kind != "f":
            raise ValueError(
                f"chunk input dtypes: sites must be integers and uniforms "
                f"floats, got {sites.dtype} and {uniforms.dtype}"
            )
        if n > self.lattice.n_sites:
            raise ValueError(
                f"chunk of {n} trials exceeds the {self.lattice.n_sites}-site "
                f"trial stream"
            )
        if n == 0:
            return np.zeros(len(self.model.reaction_types), dtype=np.int64)
        if sites.min() < 0 or sites.max() >= self.lattice.n_sites:
            raise ValueError(
                f"chunk sites must lie in [0, {self.lattice.n_sites})"
            )
        self._sites[:n] = sites
        self._uniforms[:n] = uniforms
        if self._ladder.degraded:
            return self._exec_serial(n)
        bounds = np.linspace(0, n, self.n_workers + 1).astype(int).tolist()
        jobs = [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
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
        return self._exec_serial(n)

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

    def _exec_serial(self, n: int) -> np.ndarray:
        """In-process execution of the stream's first ``n`` trials (the
        last rung): the master runs the *selected* backend's bound
        visit, so a run that degrades mid-way executes the very kernels
        the workers did."""
        if self._serial is None:
            comp = self.model.compile(self.lattice)
            counts = np.zeros(comp.n_types, dtype=np.int64)
            visit = self.backend.bind_visit(
                self.state, comp, counts, "run_trials_batch", self._uniforms
            )
            self._serial = (visit, counts)
        visit, counts = self._serial
        w0 = _time.perf_counter()
        counts[:] = 0
        visit(self._sites[:n])
        m = self.metrics
        if m.enabled:
            m.observe("executor.chunk.wall", _time.perf_counter() - w0)
            m.inc("executor.chunks")
            m.inc("executor.serial_chunks")
        return counts.copy()

    # ------------------------------------------------------------------
    def _release_shm(self) -> None:
        """Drop the views, close and unlink both segments (idempotent)."""
        self._state = self._sites = self._uniforms = None
        for attr in ("_shm", "_stream_shm"):
            shm = getattr(self, attr, None)
            if shm is None:
                continue
            setattr(self, attr, None)
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
        """Stop the workers and release both shared-memory segments.

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
    The workers map the uniforms to types with the executor's own rate
    table, so the executor must be bound to this engine's lattice *and*
    model (species, reaction types and rates).
    """

    def __init__(self, *args, executor: ParallelChunkExecutor, **kwargs):
        super().__init__(*args, **kwargs)
        if executor.lattice != self.lattice:
            raise ValueError("executor is bound to a different lattice")
        theirs, ours = executor.model, self.model
        if theirs is not ours and (
            theirs.species.names != ours.species.names
            or theirs.reaction_types != ours.reaction_types
        ):
            raise ValueError("executor is bound to a different model")
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
        # the very draws draw_types makes; the workers map them to types
        uniforms = self.rng.random(chunk.size)
        counts = self.executor.execute_chunk(chunk, uniforms)
        self.executed_per_type += counts
        self.n_trials += chunk.size
        self.time += self.time_increment(chunk.size)
        m = self.metrics
        if m.enabled:
            self._record_attempts(
                types_from_uniforms(self.compiled.type_cum, uniforms)
            )
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
