"""Tests for the multiprocessing shared-memory executor."""

import pickle

import numpy as np
import pytest

from repro.backends import available_backends
from repro.ca import PNDCA
from repro.core import Lattice
from repro.core.rates import selection_table
from repro.lint import preflight_partition
from repro.models import ziff_model
from repro.parallel.executor import ParallelChunkExecutor, ParallelPNDCA
from repro.partition import five_chunk_partition


@pytest.fixture
def setup(ziff):
    lat = Lattice((10, 10))
    p5 = five_chunk_partition(lat)
    preflight_partition(p5, ziff)
    return lat, p5


def uniforms_for(model, t, n):
    """``n`` uniforms that all select reaction type ``t``: the midpoint
    of its bin in the cumulative rate table."""
    cum, _ = selection_table(model.rates)
    lo = cum[t - 1] if t else 0.0
    return np.full(n, (lo + cum[t]) / 2)


class TestExecutor:
    def test_execute_chunk_counts(self, ziff, setup):
        lat, p5 = setup
        with ParallelChunkExecutor(ziff, lat, n_workers=2) as ex:
            t = ziff.type_index("CO_ads")
            chunk = p5.chunks[0]
            counts = ex.execute_chunk(chunk, uniforms_for(ziff, t, chunk.size))
            assert counts[t] == chunk.size  # empty lattice: all succeed
            assert (ex.state[chunk] == ziff.species.code("CO")).all()

    def test_empty_chunk(self, ziff, setup):
        lat, _ = setup
        with ParallelChunkExecutor(ziff, lat, n_workers=2) as ex:
            counts = ex.execute_chunk(np.empty(0, dtype=np.intp), np.empty(0))
            assert counts.sum() == 0

    def test_load_state(self, ziff, setup):
        lat, _ = setup
        with ParallelChunkExecutor(ziff, lat, n_workers=1) as ex:
            arr = np.full(lat.n_sites, 2, dtype=np.uint8)
            ex.load_state(arr)
            assert (ex.state == 2).all()
            with pytest.raises(ValueError):
                ex.load_state(np.zeros(5, dtype=np.uint8))

    def test_load_state_rejects_dtype_mismatch(self, ziff, setup):
        # silently casting float/int64 into the uint8 shared buffer
        # would truncate every value without a trace
        lat, _ = setup
        with ParallelChunkExecutor(ziff, lat, n_workers=1) as ex:
            with pytest.raises(ValueError, match="dtype mismatch"):
                ex.load_state(np.zeros(lat.n_sites, dtype=np.float64))
            with pytest.raises(ValueError, match="dtype mismatch"):
                ex.load_state(np.zeros(lat.n_sites, dtype=np.int64))
            # the explicit cast spelt out in the error message works
            ex.load_state(np.ones(lat.n_sites).astype(np.uint8))
            assert (ex.state == 1).all()

    def test_default_context_is_platform_aware(self, ziff, setup):
        import multiprocessing as mp

        from repro.resilience.supervisor import _default_start_method

        lat, _ = setup
        assert _default_start_method() in mp.get_all_start_methods()
        with ParallelChunkExecutor(ziff, lat, n_workers=1) as ex:
            assert ex.context == _default_start_method()

    def test_explicit_spawn_context(self, ziff, setup):
        # spawn is available on every platform; the executor must work
        # with it even where fork is the auto-selected default
        lat, p5 = setup
        with ParallelChunkExecutor(ziff, lat, n_workers=2, context="spawn") as ex:
            t = ziff.type_index("CO_ads")
            chunk = p5.chunks[0]
            counts = ex.execute_chunk(chunk, uniforms_for(ziff, t, chunk.size))
            assert counts[t] == chunk.size

    def test_closed_executor_rejects_work(self, ziff, setup):
        lat, p5 = setup
        ex = ParallelChunkExecutor(ziff, lat, n_workers=1)
        ex.close()
        with pytest.raises(RuntimeError):
            ex.execute_chunk(p5.chunks[0], np.zeros(p5.chunks[0].size))
        ex.close()  # idempotent

    @pytest.mark.parametrize(
        "bad",
        [
            "short", "long", "2-d", "0-d", "int-uniforms", "float-sites",
            "over-n-sites", "negative-site", "site-past-the-lattice",
        ],
    )
    def test_bad_chunk_input_fails_closed(self, ziff, setup, bad):
        """Malformed input is a caller error: it raises in the master
        before dispatch instead of walking the recovery ladder (it used
        to burn both retries and leave the executor degraded)."""
        from repro.obs import MetricsCollector

        lat, p5 = setup
        chunk = p5.chunks[0]
        n = chunk.size
        u = uniforms_for(ziff, ziff.type_index("CO_ads"), n)
        sites, uniforms = {
            "short": (chunk, u[:-1]),
            "long": (chunk[:-1], u),
            "2-d": (chunk.reshape(1, -1), u.reshape(1, -1)),
            "0-d": (chunk[0], u[0]),
            "int-uniforms": (chunk, np.zeros(n, dtype=np.intp)),
            "float-sites": (chunk.astype(float), u),
            "over-n-sites": (
                np.arange(lat.n_sites + 1) % lat.n_sites,
                np.zeros(lat.n_sites + 1),
            ),
            # the workers' bound visits trust every site they are given
            "negative-site": (np.concatenate([chunk[:-1], [-1]]), u),
            "site-past-the-lattice": (
                np.concatenate([chunk[:-1], [lat.n_sites]]), u
            ),
        }[bad]
        m = MetricsCollector()
        with ParallelChunkExecutor(ziff, lat, n_workers=2, metrics=m) as ex:
            with pytest.raises(ValueError, match="chunk"):
                ex.execute_chunk(sites, uniforms)
            assert not ex.degraded
            assert m.snapshot().counter("executor.retries", 0) == 0
            assert (ex.state == 0).all()  # nothing ran
            # the next valid chunk still runs on the workers
            counts = ex.execute_chunk(chunk, u)
            assert counts.sum() == n
            snap = m.snapshot()
            assert snap.counter("executor.serial_chunks", 0) == 0
            assert snap.histograms["executor.slice.wall"].count == 2

    def test_n_workers_validation(self, ziff, setup):
        lat, _ = setup
        with pytest.raises(ValueError):
            ParallelChunkExecutor(ziff, lat, n_workers=0)


class TestExecutorTeardown:
    """Regression tests for the init-leak and stale-view bugs."""

    def test_failed_init_releases_shared_memory(self, ziff, setup, monkeypatch):
        from multiprocessing import shared_memory

        from repro.parallel import executor as executor_mod

        lat, _ = setup
        created: list[str] = []
        real_shm = shared_memory.SharedMemory

        def recording_shm(*args, **kwargs):
            shm = real_shm(*args, **kwargs)
            if kwargs.get("create") or (args and args[0] is None):
                created.append(shm.name)
            return shm

        monkeypatch.setattr(
            executor_mod.shared_memory, "SharedMemory", recording_shm
        )
        # an unknown start method makes mp.get_context raise after both
        # segments (state and trial stream) have been created — the
        # buggy __init__ leaked them
        with pytest.raises(ValueError):
            ParallelChunkExecutor(ziff, lat, n_workers=1, context="no-such-method")
        assert len(created) == 2
        # every segment must be unlinked: re-attaching by name must fail
        for name in created:
            with pytest.raises(FileNotFoundError):
                real_shm(name=name)

        class UnmappableShm(real_shm):
            """Creates the real segment, but its buffer cannot be viewed."""

            @property
            def buf(self):
                raise OSError("simulated mapping failure")

        def unmappable_shm(*args, **kwargs):
            shm = UnmappableShm(*args, **kwargs)
            created.append(shm.name)
            return shm

        monkeypatch.setattr(
            executor_mod.shared_memory, "SharedMemory", unmappable_shm
        )
        # the state view is created after the segment: a failure there
        # must release the segment too
        with pytest.raises(OSError, match="simulated mapping failure"):
            ParallelChunkExecutor(ziff, lat, n_workers=1)
        assert len(created) == 3
        with pytest.raises(FileNotFoundError):
            real_shm(name=created[2])

    def test_failing_worker_setup_fails_closed(self, ziff, setup, monkeypatch):
        """A worker whose setup raises is not respawned forever: the
        first chunk raises WorkerInitError with the worker's message,
        and the executor closes and unlinks its segment."""
        from multiprocessing import shared_memory

        from repro.parallel import executor as executor_mod
        from repro.resilience.supervisor import WorkerInitError

        def broken_setup(*args):
            raise RuntimeError("simulated setup failure")

        monkeypatch.setattr(executor_mod, "_init_worker", broken_setup)
        lat, p5 = setup
        ex = ParallelChunkExecutor(ziff, lat, n_workers=2, context="fork")
        names = [ex._shm.name, ex._stream_shm.name]
        chunk = p5.chunks[0]
        with pytest.raises(WorkerInitError, match="simulated setup failure"):
            ex.execute_chunk(chunk, np.zeros(chunk.size))
        with pytest.raises(RuntimeError, match="closed"):
            ex.state
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_state_access_raises_after_close(self, ziff, setup):
        lat, _ = setup
        ex = ParallelChunkExecutor(ziff, lat, n_workers=1)
        ex.close()
        # reading a view of the unlinked buffer would crash the
        # interpreter; every access path must raise instead
        with pytest.raises(RuntimeError, match="closed"):
            ex.state
        with pytest.raises(RuntimeError, match="closed"):
            ex.load_state(np.zeros(lat.n_sites, dtype=np.uint8))

    def test_close_tolerates_partial_construction(self, ziff, setup):
        lat, _ = setup
        ex = ParallelChunkExecutor.__new__(ParallelChunkExecutor)
        ex.close()  # no _pool/_shm/_closed attributes: must not raise

    def test_del_after_failed_init_is_silent(self, ziff, setup):
        lat, _ = setup
        ex = ParallelChunkExecutor.__new__(ParallelChunkExecutor)
        ex.__del__()

    def test_close_is_idempotent_and_releases(self, ziff, setup, monkeypatch):
        from multiprocessing import shared_memory

        from repro.parallel import executor as executor_mod

        lat, _ = setup
        created: list[str] = []
        real_shm = shared_memory.SharedMemory

        def recording_shm(*args, **kwargs):
            shm = real_shm(*args, **kwargs)
            if kwargs.get("create"):
                created.append(shm.name)
            return shm

        monkeypatch.setattr(executor_mod.shared_memory, "SharedMemory", recording_shm)
        ex = ParallelChunkExecutor(ziff, lat, n_workers=1)
        assert len(created) == 2  # the state and the trial stream
        ex.close()
        ex.close()
        for name in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestParallelPNDCA:
    def test_bit_identical_to_serial(self, ziff, setup):
        lat, p5 = setup
        serial = PNDCA(ziff, lat, seed=11, partition=p5, strategy="ordered")
        rs = serial.run(until=4.0)
        with ParallelChunkExecutor(ziff, lat, n_workers=3) as ex:
            par = ParallelPNDCA(
                ziff, lat, seed=11, partition=p5, strategy="ordered", executor=ex
            )
            rp = par.run(until=4.0)
        assert np.array_equal(rs.final_state.array, rp.final_state.array)
        assert rs.n_executed == rp.n_executed
        assert np.array_equal(rs.executed_per_type, rp.executed_per_type)
        assert rs.final_time == pytest.approx(rp.final_time)

    @pytest.mark.parametrize("backend", available_backends())
    def test_mid_run_handover_to_shared_memory(self, ziff, setup, backend):
        """The hazard behind the bound visit's state check: a PNDCA that
        has already visited gets its state array rebound onto the
        executor's shared memory, as ``ParallelPNDCA.__init__`` does,
        and must go on writing the live array, not the one it was bound
        to first."""
        lat, p5 = setup

        def mk():
            return PNDCA(
                ziff, lat, seed=11, partition=p5, strategy="ordered",
                backend=backend,
            )

        rs = mk().run(until=4.0)
        sim = mk()
        sim.run(until=2.0)
        with ParallelChunkExecutor(ziff, lat, n_workers=1) as ex:
            ex.load_state(sim.state.array)
            sim.state.array = ex.state
            sim.run(until=4.0)
            handed_over = ex.state.copy()
        assert np.array_equal(rs.final_state.array, handed_over)
        assert np.array_equal(rs.executed_per_type, sim.executed_per_type)

    def test_eight_workers_bit_identical(self, ziff):
        """Stress the shared trial stream with more workers than a CI
        runner has cores, each mapping its own slice of the uniforms:
        the run still equals the serial one, with no slice retried."""
        from repro.obs import MetricsCollector

        lat = Lattice((20, 20))
        p5 = five_chunk_partition(lat)
        serial = PNDCA(ziff, lat, seed=5, partition=p5, strategy="random-order")
        rs = serial.run(until=3.0)
        m = MetricsCollector()
        with ParallelChunkExecutor(ziff, lat, n_workers=8, metrics=m) as ex:
            par = ParallelPNDCA(
                ziff, lat, seed=5, partition=p5, strategy="random-order",
                executor=ex,
            )
            rp = par.run(until=3.0)
        assert np.array_equal(rs.final_state.array, rp.final_state.array)
        assert np.array_equal(rs.executed_per_type, rp.executed_per_type)
        assert rs.final_time == rp.final_time
        snap = m.snapshot()
        assert snap.counter("executor.retries", 0) == 0
        chunks = snap.counter("executor.chunks")
        assert snap.histograms["executor.slice.wall"].count == 8 * chunks > 0

    def test_result_survives_executor_close(self, ziff, setup):
        lat, p5 = setup
        with ParallelChunkExecutor(ziff, lat, n_workers=2) as ex:
            par = ParallelPNDCA(
                ziff, lat, seed=1, partition=p5, executor=ex
            )
            res = par.run(until=2.0)
        # shared memory is gone; the result's state must still be usable
        assert res.final_state.counts().sum() == lat.n_sites

    def test_requires_conflict_free(self, ziff, setup):
        from repro.partition import Partition

        lat, _ = setup
        bad = Partition.single_chunk(lat)
        with ParallelChunkExecutor(ziff, lat, n_workers=1) as ex:
            with pytest.raises(ValueError):
                ParallelPNDCA(
                    ziff, lat, seed=0, partition=bad, validate=False, executor=ex
                )

    def test_lattice_mismatch(self, ziff, setup):
        lat, p5 = setup
        with ParallelChunkExecutor(ziff, Lattice((20, 20)), n_workers=1) as ex:
            with pytest.raises(ValueError, match="different lattice"):
                ParallelPNDCA(ziff, lat, seed=0, partition=p5, executor=ex)

    def test_model_mismatch(self, ziff, setup):
        """The workers map uniforms with the executor's rate table: an
        executor built for other rates would silently diverge."""
        lat, p5 = setup
        other = ziff_model(k_co=5.0, k_o2=0.5, k_co2=2.0)
        with ParallelChunkExecutor(other, lat, n_workers=1) as ex:
            with pytest.raises(ValueError, match="different model"):
                ParallelPNDCA(ziff, lat, seed=0, partition=p5, executor=ex)
        # an equal model built separately is the same binding
        twin = ziff_model(k_co=1.0, k_o2=0.5, k_co2=2.0)
        with ParallelChunkExecutor(twin, lat, n_workers=1) as ex:
            ParallelPNDCA(ziff, lat, seed=0, partition=p5, executor=ex)

    def test_task_payloads_do_not_scale_with_the_chunk(self, ziff, monkeypatch):
        """Only slice bounds cross the task pipes: every payload is a few
        bytes, and the traffic per chunk visit is independent of the
        lattice (it used to carry 16 B per trial)."""
        from repro.obs import MetricsCollector
        from repro.resilience.supervisor import Supervisor

        sizes: list[int] = []
        submit = Supervisor.submit

        def recording_submit(self, wid, payload, *args, **kwargs):
            sizes.append(len(pickle.dumps(payload)))
            return submit(self, wid, payload, *args, **kwargs)

        monkeypatch.setattr(Supervisor, "submit", recording_submit)
        per_visit = {}
        for side in (20, 60):
            sizes.clear()
            lat = Lattice((side, side))
            p5 = five_chunk_partition(lat)
            m = MetricsCollector()
            with ParallelChunkExecutor(ziff, lat, n_workers=2) as ex:
                par = ParallelPNDCA(
                    ziff, lat, seed=3, partition=p5, executor=ex, metrics=m
                )
                par.run(until=1.0)
            visits = m.snapshot().counter("executor.chunks")
            assert len(sizes) == 2 * visits > 0
            assert max(sizes) < 256
            per_visit[side] = sum(sizes) / visits
        # 9x the trials per chunk, the same bytes per visit (a pickled
        # bound may grow by a byte once it passes 255)
        assert per_visit[60] <= per_visit[20] + 4

    def test_metrics_shared_and_bit_identical(self, ziff, setup):
        from repro.obs import MetricsCollector

        lat, p5 = setup
        serial = PNDCA(ziff, lat, seed=7, partition=p5, strategy="ordered")
        rs = serial.run(until=3.0)
        m = MetricsCollector()
        with ParallelChunkExecutor(ziff, lat, n_workers=2) as ex:
            par = ParallelPNDCA(
                ziff, lat, seed=7, partition=p5, strategy="ordered",
                executor=ex, metrics=m,
            )
            assert ex.metrics is m  # the run's collector is shared
            rp = par.run(until=3.0)
        # instrumentation must not perturb the trajectory
        assert np.array_equal(rs.final_state.array, rp.final_state.array)
        assert rs.n_executed == rp.n_executed
        snap = m.snapshot()
        assert snap.counters["trials.executed"] == rp.n_executed
        assert snap.counters["trials.attempted"] == rp.n_trials
        assert snap.counters["executor.chunks"] == snap.counters["pndca.chunk.visits"]
        # per-worker slice timings aggregated at the barrier: with 2
        # workers every non-trivial chunk contributes 2 slice timings
        assert (
            snap.histograms["executor.slice.wall"].count
            >= snap.histograms["executor.chunk.wall"].count
        )


class TestExecutorBackend:
    """The executor honours the selected kernel backend on every rung.

    Regression: the serial-degradation path used to call the
    module-level reference ``run_trials_batch`` directly — a degraded
    run silently switched kernel implementations mid-run.  It now
    dispatches through the executor's resolved backend, as the worker
    slices always did.
    """

    def test_serial_degradation_uses_selected_backend(self, ziff, setup):
        from repro.backends import Backend, register_backend
        from repro.backends import registry as _registry
        from repro.core.kernels import run_trials_batch as ref_batch

        calls = []

        class Sentinel(Backend):
            name = "sentinel-exec"
            tier = -1

            def kernels(self):
                def counting_batch(state, compiled, sites, types, counts=None):
                    calls.append(len(sites))
                    return ref_batch(state, compiled, sites, types, counts=counts)

                return {"run_trials_batch": counting_batch}

        register_backend(Sentinel())
        try:
            lat, p5 = setup
            with ParallelChunkExecutor(
                ziff, lat, n_workers=1, backend="sentinel-exec"
            ) as ex:
                assert ex.backend.name == "sentinel-exec"
                ex._ladder.degraded = True  # jump straight to the last rung
                t = ziff.type_index("CO_ads")
                chunk = p5.chunks[0]
                counts = ex.execute_chunk(chunk, uniforms_for(ziff, t, chunk.size))
                assert counts[t] == chunk.size
            # the regression: zero calls here meant the degraded rung
            # bypassed the backend and hard-coded the reference kernel
            assert calls == [chunk.size]
        finally:
            _registry._REGISTRY.pop("sentinel-exec", None)

    def test_degraded_run_bit_identical_across_backends(self, ziff, setup):
        from repro.backends import available_backends

        compiled = [n for n in available_backends() if n != "numpy"]
        if not compiled:
            pytest.skip("no compiled backend available")
        lat, p5 = setup
        serial = PNDCA(ziff, lat, seed=13, partition=p5, strategy="ordered")
        rs = serial.run(until=3.0)
        with ParallelChunkExecutor(
            ziff, lat, n_workers=2, backend=compiled[0]
        ) as ex:
            ex._ladder.degraded = True
            par = ParallelPNDCA(
                ziff, lat, seed=13, partition=p5, strategy="ordered", executor=ex
            )
            rp = par.run(until=3.0)
        assert np.array_equal(rs.final_state.array, rp.final_state.array)
        assert rs.n_executed == rp.n_executed

    def test_workers_resolve_backend_by_name(self, ziff, setup):
        """Parallel slices under a compiled backend stay bit-identical
        (the backend object itself is never pickled — only its name)."""
        from repro.backends import available_backends

        compiled = [n for n in available_backends() if n != "numpy"]
        if not compiled:
            pytest.skip("no compiled backend available")
        lat, p5 = setup
        serial = PNDCA(ziff, lat, seed=17, partition=p5, strategy="ordered")
        rs = serial.run(until=3.0)
        with ParallelChunkExecutor(
            ziff, lat, n_workers=3, backend=compiled[0]
        ) as ex:
            par = ParallelPNDCA(
                ziff, lat, seed=17, partition=p5, strategy="ordered", executor=ex
            )
            rp = par.run(until=3.0)
        assert np.array_equal(rs.final_state.array, rp.final_state.array)
        assert np.array_equal(rs.executed_per_type, rp.executed_per_type)
