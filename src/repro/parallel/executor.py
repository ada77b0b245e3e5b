"""Real chunk-parallel execution over shared memory (multiprocessing).

The paper's parallelism claim is that all sites of a conflict-free
chunk can be updated simultaneously with *no* synchronisation beyond a
per-chunk barrier.  This module demonstrates it for real: the lattice
state lives in a ``multiprocessing.shared_memory`` block, worker
processes attach to it once, and each chunk update is split into
per-worker slices executed concurrently — lock-free, because the
non-overlap rule guarantees the slices touch disjoint sites.

On this reproduction's single-CPU host the executor proves
*correctness* (bit-identical results to the serial PNDCA given the
same master-drawn randoms), not speed; the performance side of Fig. 7
is generated by the calibrated machine model
(:mod:`repro.parallel.machine`).  On a multi-core host the same code
parallelises for real.

Usage::

    with ParallelChunkExecutor(model, lattice, n_workers=4) as ex:
        sim = ParallelPNDCA(model, lattice, partition=p5, executor=ex, seed=1)
        result = sim.run(until=100.0)
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal as _signal
import time as _time
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

from ..backends import resolve_backend
from ..core.lattice import Lattice
from ..core.model import Model
from ..obs.metrics import NULL_METRICS, MetricsCollector
from ..obs.trace import NULL_TRACER, Tracer
from .. import ca as _ca

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.chaos import ChaosMonkey

__all__ = ["ParallelChunkExecutor", "ParallelPNDCA"]

#: pool/IPC failures the executor recovers from (worker death shows up
#: as a deadline miss on the lost slice, a broken pipe, or a torn
#: connection depending on where the process died)
_RECOVERABLE = (mp.TimeoutError, BrokenPipeError, EOFError, ConnectionError, OSError)

#: bounded exponential backoff between pool respawns, in seconds:
#: ``min(_BACKOFF_BASE * 2**attempt, _BACKOFF_MAX)``
_BACKOFF_BASE = 0.05
_BACKOFF_MAX = 1.0


def _default_start_method() -> str:
    """Platform-aware default: ``fork`` where available, else ``spawn``."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


# ----------------------------------------------------------------------
# worker-side globals (set once per worker by the pool initializer)
# ----------------------------------------------------------------------
_worker_state: np.ndarray | None = None
_worker_compiled = None
_worker_shm = None
_worker_kernels = None


def _init_worker(
    shm_name: str,
    n_sites: int,
    model: Model,
    lattice: Lattice,
    backend_name: str = "numpy",
) -> None:
    """Attach to the shared state and compile the model (once per worker).

    Backends are not picklable (a compiled one holds library handles),
    so the master ships only the backend *name*; each worker re-resolves
    it locally — quietly, since the master already warned once if the
    requested backend had to fall back.
    """
    global _worker_state, _worker_compiled, _worker_shm, _worker_kernels
    _worker_shm = shared_memory.SharedMemory(name=shm_name)
    _worker_state = np.ndarray((n_sites,), dtype=np.uint8, buffer=_worker_shm.buf)
    _worker_compiled = model.compile(lattice)
    try:
        _worker_kernels = resolve_backend(backend_name, warn=False).kernel_set()
    except ValueError:
        # a custom backend registered only in the master is invisible
        # to a spawn-context worker; degrade to the reference kernels
        # rather than kill the pool (results are identical by contract)
        _worker_kernels = resolve_backend("numpy").kernel_set()


def _exec_slice(
    sites: np.ndarray,
    types: np.ndarray,
    delay: float = 0.0,
    die: bool = False,
) -> tuple[np.ndarray, float]:
    """Execute a conflict-free trial slice.

    Returns the per-type executed counts plus the slice's wall time —
    the per-worker timing the master aggregates at the chunk barrier.
    ``delay``/``die`` are chaos-harness injection points: they act
    *before* any state is touched, so an injected failure leaves the
    shared state exactly as the master's pre-chunk snapshot has it.
    """
    if die:  # chaos: SIGKILL this worker mid-chunk
        os.kill(os.getpid(), _signal.SIGKILL)
    if delay:  # chaos: stall past the chunk deadline
        _time.sleep(delay)
    assert _worker_state is not None and _worker_compiled is not None
    assert _worker_kernels is not None
    w0 = _time.perf_counter()
    counts = np.zeros(_worker_compiled.n_types, dtype=np.int64)
    _worker_kernels.run_trials_batch(
        _worker_state, _worker_compiled, sites, types, counts=counts
    )
    return counts, _time.perf_counter() - w0


class ParallelChunkExecutor:
    """A pool of workers sharing the lattice state.

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
        (retry, respawn, serial fallback) are emitted as
        ``on_recovery`` events.
    chunk_timeout:
        Per-chunk deadline in seconds.  ``None`` (default) keeps the
        bare fast path: no deadline, no snapshotting — and the
        historical failure mode that a worker dying mid-chunk blocks
        the barrier forever.  With a deadline set, the executor is
        *fault tolerant*: a missed deadline or a pool/IPC error
        triggers the recovery ladder below.
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

    Recovery ladder (fault-tolerant mode)
    -------------------------------------
    Before each chunk the master snapshots the shared state (one
    ``N``-byte copy).  On failure it (1) terminates and respawns the
    pool with bounded exponential backoff (0.05 s, doubling per
    attempt up to 1 s), (2) restores the snapshot —
    slices that completed before the failure are rolled back, so the
    retry re-executes the chunk from a consistent state — and retries;
    because chunk slices are disjoint and all randoms are master-drawn,
    a retried chunk is bit-identical to an undisturbed one.  After
    ``max_retries`` failures it (3) degrades permanently to in-process
    serial execution of the same batches — through the *selected
    backend's* ``run_trials_batch``, not a hard-coded kernel, so the
    degraded run is again bit-identical and executes the same
    implementation tier the workers did.  The run completes with
    correct results, only slower.  Every rung is recorded
    (``executor.retries`` / ``executor.respawns`` /
    ``executor.degraded`` counters, ``on_recovery`` trace events).

    Lifecycle
    ---------
    The shared-memory segment is released (closed *and* unlinked) by
    :meth:`close` — also on construction failure (a bad ``context``
    name or a worker-initializer error does not leak the segment) and,
    as a safety net, from ``__del__`` during interpreter shutdown.
    After ``close()`` every state access (:attr:`state`,
    :meth:`load_state`, :meth:`execute_chunk`) raises
    ``RuntimeError``: the old mapping is gone, and touching a stale
    view of it would crash the interpreter outright.
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
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError(f"chunk_timeout must be > 0, got {chunk_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.model = model
        self.lattice = lattice
        self.n_workers = n_workers
        self.context = context if context is not None else _default_start_method()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.chunk_timeout = chunk_timeout
        self.max_retries = max_retries
        self.chaos = chaos
        self.backend = resolve_backend(backend)
        self._kernels = self.backend.kernel_set()
        self._degraded = False
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
            self._spawn_pool()
        except BaseException:
            # view or pool creation failed: the segment must not outlive us
            self._release_shm()
            raise
        self._closed = False

    def _spawn_pool(self) -> None:
        """(Re)create the worker pool attached to the shared segment."""
        ctx = mp.get_context(self.context)
        self._pool = ctx.Pool(
            processes=self.n_workers,
            initializer=_init_worker,
            initargs=(
                self._shm.name,
                self.lattice.n_sites,
                self.model,
                self.lattice,
                self.backend.name,
            ),
        )

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
        return self._degraded

    def execute_chunk(self, sites: np.ndarray, types: np.ndarray) -> np.ndarray:
        """Execute a conflict-free chunk batch across the workers.

        The batch is split into ``n_workers`` contiguous slices; each
        worker executes its slice against the shared state without
        locks (disjoint neighborhoods).  Blocks until all slices are
        done (the per-chunk barrier) — bounded by ``chunk_timeout``
        when one is set, in which case failures walk the recovery
        ladder (retry → respawn → serial fallback, see the class
        docstring).  Returns the per-type executed counts (length
        ``n_types``).
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        n = len(sites)
        n_types = len(self.model.reaction_types)
        if n == 0:
            return np.zeros(n_types, dtype=np.int64)
        if self._degraded:
            return self._exec_serial(sites, types)
        bounds = np.linspace(0, n, self.n_workers + 1).astype(int)
        jobs = [
            (sites[a:b], types[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]
        if self.chunk_timeout is None and self.chaos is None:
            # bare fast path: no deadline, no snapshot copy
            return self._dispatch(jobs)
        return self._execute_fault_tolerant(sites, types, jobs)

    def _dispatch(
        self, jobs: list[tuple], timeout: float | None = None
    ) -> np.ndarray:
        """Run one slice batch on the pool (the per-chunk barrier)."""
        if self._pool is None:  # a failed respawn left us pool-less
            raise BrokenPipeError("worker pool is gone")
        m = self.metrics
        if m.enabled:
            w0 = _time.perf_counter()
        if timeout is None:
            results = self._pool.starmap(_exec_slice, jobs)
        else:
            results = self._pool.starmap_async(_exec_slice, jobs).get(timeout)
        if m.enabled:
            # per-worker slice timings, aggregated at the barrier
            m.observe("executor.chunk.wall", _time.perf_counter() - w0)
            m.inc("executor.chunks")
            for _, slice_wall in results:
                m.observe("executor.slice.wall", slice_wall)
        return np.sum([counts for counts, _ in results], axis=0).astype(np.int64)

    def _execute_fault_tolerant(
        self, sites: np.ndarray, types: np.ndarray, jobs: list[tuple]
    ) -> np.ndarray:
        """The recovery ladder: deadline → retry/respawn → serial."""
        m = self.metrics
        tracer = self.tracer
        # consistent pre-chunk snapshot: restoring it rolls back any
        # slice that completed before a co-slice failed
        pre = self._state.copy()
        for attempt in range(self.max_retries + 1):
            try:
                return self._dispatch(
                    self._armed_jobs(jobs), timeout=self.chunk_timeout
                )
            except _RECOVERABLE as exc:
                m.inc("executor.retries")
                if tracer.enabled:
                    tracer.on_recovery(
                        "chunk-retry",
                        {"attempt": attempt + 1, "error": type(exc).__name__},
                    )
                self._respawn_pool(attempt)
                self._state[:] = pre
        # out of retries: degrade to in-process serial execution —
        # bit-identical (the serial batch equals the union of slices),
        # just not parallel.  Sticky for the executor's lifetime.
        self._degraded = True
        m.inc("executor.degraded")
        if tracer.enabled:
            tracer.on_recovery("serial-fallback", {"after_retries": self.max_retries})
        self._state[:] = pre
        return self._exec_serial(sites, types)

    def _armed_jobs(self, jobs: list[tuple]) -> list[tuple]:
        """Let the chaos harness arm one slice of this dispatch."""
        if self.chaos is None:
            return jobs
        spec = self.chaos.poll("chunk")
        if spec is None:
            return jobs
        armed = list(jobs)
        s, t = armed[0][0], armed[0][1]
        if spec.kind == "kill-worker":
            armed[0] = (s, t, 0.0, True)
        elif spec.kind == "delay-slice":
            armed[0] = (s, t, spec.delay, False)
        return armed

    def _respawn_pool(self, attempt: int) -> None:
        """Terminate the (possibly wedged) pool and spawn a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.terminate()
                pool.join()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        _time.sleep(min(_BACKOFF_BASE * (2.0 ** attempt), _BACKOFF_MAX))
        try:
            self._spawn_pool()
            self.metrics.inc("executor.respawns")
        except Exception:  # spawn failed: next dispatch raises, then degrades
            self._pool = None

    def _exec_serial(self, sites: np.ndarray, types: np.ndarray) -> np.ndarray:
        """In-process execution of one chunk batch (the last rung).

        Dispatches through the executor's *selected* backend — the
        degraded path must execute the very same kernels the workers
        would have, or a run that degrades mid-way silently switches
        implementations.
        """
        if self._compiled_master is None:
            self._compiled_master = self.model.compile(self.lattice)
        m = self.metrics
        counts = np.zeros(self._compiled_master.n_types, dtype=np.int64)
        if m.enabled:
            w0 = _time.perf_counter()
        self._kernels.run_trials_batch(
            self.state, self._compiled_master, sites, types, counts=counts
        )
        if m.enabled:
            m.observe("executor.chunk.wall", _time.perf_counter() - w0)
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
        """Shut the pool down and release the shared-memory block.

        Idempotent, and safe to call from ``__del__`` during
        interpreter shutdown: a partially torn-down pool or module
        never prevents the segment from being unlinked.
        """
        if getattr(self, "_closed", True) and getattr(self, "_pool", None) is None:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.close()
                pool.join()
            except Exception:  # pragma: no cover - shutdown safety net
                try:
                    pool.terminate()
                except Exception:
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
