"""Deterministic chaos: every claimed recovery path, exercised.

The scenarios here injure a run on purpose — SIGKILL a worker
mid-chunk, stall a slice past its deadline, corrupt a checkpoint file,
fail a checkpoint write — and assert that the run not only completes
but completes **bit-identically** to an undisturbed one.  Faults fire
on deterministic poll counts (never wall clock), so a red run here is
a reproducible bug, not flake.
"""

import signal
import time
from contextlib import closing

import numpy as np
import pytest

from repro.ca import PNDCA
from repro.core import Lattice
from repro.obs.metrics import MetricsCollector
from repro.obs.trace import Tracer
from repro.parallel.executor import ParallelChunkExecutor, ParallelPNDCA
from repro.partition import five_chunk_partition
from repro.resilience import (
    ChaosMonkey,
    CheckpointCorruptError,
    CheckpointPolicy,
    Checkpointer,
    FaultSpec,
    checkpoint_paths,
    last_good_checkpoint,
    load_checkpoint,
)
from repro.resilience.supervisor import RecoveryLadder, Supervisor, WorkerInitError

UNTIL = 1.0


@pytest.fixture
def setup(ziff):
    lat = Lattice((10, 10))
    p5 = five_chunk_partition(lat)
    p5.validate_conflict_free(ziff)
    return lat, p5


def _serial_reference(ziff, lat, p5):
    return PNDCA(ziff, lat, seed=42, partition=p5, strategy="ordered").run(
        until=UNTIL
    )


class TestChaosMonkey:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("set-on-fire")

    def test_at_validation(self):
        with pytest.raises(ValueError, match="at must be"):
            FaultSpec("kill-worker", at=0)

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="corruption mode"):
            FaultSpec("corrupt-checkpoint", mode="shred")

    def test_fires_on_exact_poll_count(self):
        monkey = ChaosMonkey(faults=[FaultSpec("kill-worker", at=3)])
        assert monkey.poll("chunk") is None
        assert monkey.poll("chunk") is None
        spec = monkey.poll("chunk")
        assert spec is not None and spec.kind == "kill-worker"
        assert monkey.poll("chunk") is None  # each spec fires once
        assert monkey.fired == [("kill-worker", "chunk", 3)]
        assert monkey.exhausted

    def test_channels_are_independent(self):
        monkey = ChaosMonkey(
            faults=[
                FaultSpec("kill-worker", at=1),
                FaultSpec("fail-emit", at=1),
            ]
        )
        assert monkey.poll("emit").kind == "fail-emit"
        assert monkey.poll("chunk").kind == "kill-worker"

    def test_corruption_is_seed_deterministic(self, tmp_path):
        blob = bytes(range(256)) * 4
        out = []
        for _ in range(2):
            f = tmp_path / "f.bin"
            f.write_bytes(blob)
            ChaosMonkey(seed=7).corrupt_file(f, mode="flip")
            out.append(f.read_bytes())
        assert out[0] == out[1] != blob

    def test_truncate_leaves_nonempty_prefix(self, tmp_path):
        f = tmp_path / "f.bin"
        f.write_bytes(b"x" * 100)
        ChaosMonkey(seed=3).corrupt_file(f, mode="truncate")
        assert 0 < f.stat().st_size < 100


def _echo_setup():
    """Worker setup whose handler returns its payload."""
    return lambda payload: payload


def _broken_setup():
    raise RuntimeError("simulated setup failure")


def _wait_events(sup, seconds=10.0):
    """Wait (in bounded steps) until the supervisor reports events."""
    end = time.monotonic() + seconds
    events = []
    while not events and time.monotonic() < end:
        events = sup.wait(1.0)
    return events


class TestSupervisor:
    """The worker slots both the executor and the orchestrator run on."""

    def test_reply_carries_the_task(self):
        with closing(Supervisor(2, _echo_setup)) as sup:
            sup.submit(1, "payload")
            assert sup.idle() == [0]
            assert _wait_events(sup) == [(1, "ok", "payload")]
            assert sup.idle() == [0, 1]

    def test_stale_reply_is_dropped(self):
        with closing(Supervisor(1, _echo_setup)) as sup:
            # a reply to a task the master no longer waits for (sequence
            # id 99) reaches the result pipe before the current one
            sup._slots[0].task_conn.send((99, "stale", 0.0, False))
            sup.submit(0, "fresh")
            assert _wait_events(sup) == [(0, "ok", "fresh")]

    def test_death_is_reported_by_the_sentinel(self):
        with closing(Supervisor(2, _echo_setup)) as sup:
            sup.submit(0, "lost", die=True)
            assert _wait_events(sup) == [(0, "died", -signal.SIGKILL)]
            sup.respawn(0)
            sup.submit(0, "again")
            assert _wait_events(sup) == [(0, "ok", "again")]

    def test_deadline_kills_the_late_worker(self):
        with closing(Supervisor(2, _echo_setup)) as sup:
            sup.submit(0, "stalled", delay=30.0)
            sup.submit(1, "prompt")
            events = []
            while len(events) < 2:
                events += sup.wait(None, deadline=0.3)
            assert events[0] == (1, "ok", "prompt")
            wid, kind, elapsed = events[1]
            assert (wid, kind) == (0, "late") and 0.3 < elapsed < 5.0
            assert sup._slots[0].process.exitcode == -signal.SIGKILL

    def test_failing_setup_raises_instead_of_respawning(self):
        with closing(Supervisor(1, _broken_setup)) as sup:
            sup.submit(0, "never run")
            with pytest.raises(WorkerInitError, match="simulated setup failure"):
                _wait_events(sup)

    def test_ladder_backoff_then_sticky_serial(self):
        ladder = RecoveryLadder(max_retries=3)
        assert [ladder.after_failure(k) for k in (1, 2, 3)] == [0.05, 0.1, 0.2]
        assert not ladder.degraded
        assert ladder.after_failure(4) is None and ladder.degraded
        assert RecoveryLadder(max_retries=9).after_failure(9) == 1.0
        with pytest.raises(ValueError, match="max_retries"):
            RecoveryLadder(max_retries=-1)


class TestExecutorRecovery:
    """The recovery ladder: retry -> respawn -> serial fallback."""

    def test_kill_worker_mid_chunk_recovers_bit_identical(self, ziff, setup):
        lat, p5 = setup
        ref = _serial_reference(ziff, lat, p5)
        monkey = ChaosMonkey(faults=[FaultSpec("kill-worker", at=3)])
        m = MetricsCollector()
        tracer = Tracer()
        with ParallelChunkExecutor(
            ziff, lat, n_workers=2, chunk_timeout=1.0,
            metrics=m, tracer=tracer, chaos=monkey,
        ) as ex:
            sim = ParallelPNDCA(
                ziff, lat, seed=42, partition=p5, strategy="ordered",
                executor=ex,
            )
            res = sim.run(until=UNTIL)
        assert monkey.fired == [("kill-worker", "chunk", 3)]
        # the run completed with correct (bit-identical) results
        assert np.array_equal(ref.final_state.array, res.final_state.array)
        assert ref.final_time == res.final_time
        assert np.array_equal(ref.executed_per_type, res.executed_per_type)
        assert not ex.degraded  # one retry was enough
        snap = m.snapshot()
        assert snap.counter("executor.retries") >= 1
        assert snap.counter("executor.respawns") >= 1
        kinds = [e[3]["recovery"] for e in tracer.events if e[0] == "recovery"]
        assert "chunk-retry" in kinds

    def test_delay_slice_past_deadline_recovers(self, ziff, setup):
        lat, p5 = setup
        ref = _serial_reference(ziff, lat, p5)
        monkey = ChaosMonkey(
            faults=[FaultSpec("delay-slice", at=2, delay=2.0)]
        )
        m = MetricsCollector()
        with ParallelChunkExecutor(
            ziff, lat, n_workers=2, chunk_timeout=0.3,
            metrics=m, chaos=monkey,
        ) as ex:
            sim = ParallelPNDCA(
                ziff, lat, seed=42, partition=p5, strategy="ordered",
                executor=ex,
            )
            res = sim.run(until=UNTIL)
        assert monkey.exhausted
        assert np.array_equal(ref.final_state.array, res.final_state.array)
        # re-running a slice on its own output can leave the lattice
        # unchanged, so only the counts show a missing rollback
        assert ref.final_time == res.final_time
        assert np.array_equal(ref.executed_per_type, res.executed_per_type)
        assert m.snapshot().counter("executor.retries") >= 1

    def test_exhausted_retries_degrade_to_serial(self, ziff, setup):
        lat, p5 = setup
        ref = _serial_reference(ziff, lat, p5)
        monkey = ChaosMonkey(faults=[FaultSpec("kill-worker", at=1)])
        m = MetricsCollector()
        tracer = Tracer()
        with ParallelChunkExecutor(
            ziff, lat, n_workers=2, chunk_timeout=0.5, max_retries=0,
            metrics=m, tracer=tracer, chaos=monkey,
        ) as ex:
            sim = ParallelPNDCA(
                ziff, lat, seed=42, partition=p5, strategy="ordered",
                executor=ex,
            )
            res = sim.run(until=UNTIL)
            assert ex.degraded  # sticky for the executor's lifetime
        # graceful degradation: the whole run still completes, correct
        assert np.array_equal(ref.final_state.array, res.final_state.array)
        assert ref.final_time == res.final_time
        snap = m.snapshot()
        assert snap.counter("executor.degraded") == 1
        assert snap.counter("executor.serial_chunks") > 0
        kinds = [e[3]["recovery"] for e in tracer.events if e[0] == "recovery"]
        assert "serial-fallback" in kinds

    def test_kill_worker_without_deadline_recovers(self, ziff, setup):
        """A dead worker is seen by its process sentinel, so recovery
        needs no chunk_timeout (the old pool hung here forever)."""
        lat, p5 = setup
        ref = _serial_reference(ziff, lat, p5)
        monkey = ChaosMonkey(faults=[FaultSpec("kill-worker", at=3)])
        m = MetricsCollector()
        with ParallelChunkExecutor(
            ziff, lat, n_workers=2, metrics=m, chaos=monkey
        ) as ex:
            assert ex.chunk_timeout is None
            sim = ParallelPNDCA(
                ziff, lat, seed=42, partition=p5, strategy="ordered",
                executor=ex,
            )
            res = sim.run(until=UNTIL)
        assert monkey.fired == [("kill-worker", "chunk", 3)]
        assert np.array_equal(ref.final_state.array, res.final_state.array)
        assert ref.final_time == res.final_time
        assert np.array_equal(ref.executed_per_type, res.executed_per_type)
        assert not ex.degraded
        snap = m.snapshot()
        assert snap.counter("executor.retries") == 1
        assert snap.counter("executor.respawns") == 1

    def test_clean_run_needs_no_retry(self, ziff, setup):
        """Without faults every chunk is snapshotted, yet none is retried."""
        lat, p5 = setup
        ref = _serial_reference(ziff, lat, p5)
        m = MetricsCollector()
        with ParallelChunkExecutor(ziff, lat, n_workers=2, metrics=m) as ex:
            sim = ParallelPNDCA(
                ziff, lat, seed=42, partition=p5, strategy="ordered",
                executor=ex,
            )
            res = sim.run(until=UNTIL)
        assert np.array_equal(ref.final_state.array, res.final_state.array)
        assert m.snapshot().counter("executor.retries", 0) == 0

    def test_parameter_validation(self, ziff, setup):
        lat, _ = setup
        with pytest.raises(ValueError, match="chunk_timeout"):
            ParallelChunkExecutor(ziff, lat, chunk_timeout=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            ParallelChunkExecutor(ziff, lat, max_retries=-1)


class TestCheckpointChaos:
    def test_corrupt_checkpoint_skipped_and_named(
        self, ziff, small_lattice, tmp_path
    ):
        from repro.dmc.rsm import RSM

        # corrupt the 2nd checkpoint right after it is written
        monkey = ChaosMonkey(
            seed=5, faults=[FaultSpec("corrupt-checkpoint", at=2, mode="flip")]
        )
        ck = Checkpointer(
            tmp_path, CheckpointPolicy(every_steps=1), chaos=monkey
        )
        RSM(ziff, small_lattice, seed=1, block=512).run(
            until=2.0, checkpoint=ck
        )
        assert monkey.exhausted
        paths = checkpoint_paths(tmp_path)
        corrupt = paths[1]
        with pytest.raises(CheckpointCorruptError) as err:
            load_checkpoint(corrupt)
        # the diagnostic names the operator's next move
        assert "last good checkpoint" in str(err.value)
        good = last_good_checkpoint(tmp_path)
        assert good is not None and good != corrupt
        # and the resume path transparently uses a good one
        resumed = RSM(ziff, small_lattice, seed=9, block=512).resume(good)
        assert resumed.n_trials > 0

    def test_truncated_checkpoint_detected(self, ziff, small_lattice, tmp_path):
        from repro.dmc.rsm import RSM

        monkey = ChaosMonkey(
            seed=5,
            faults=[FaultSpec("corrupt-checkpoint", at=1, mode="truncate")],
        )
        ck = Checkpointer(
            tmp_path, CheckpointPolicy(every_steps=1), chaos=monkey
        )
        RSM(ziff, small_lattice, seed=1, block=512).run(
            until=1.0, checkpoint=ck
        )
        corrupt = checkpoint_paths(tmp_path)[0]
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(corrupt)

    def test_fail_emit_counted_and_run_survives(
        self, ziff, small_lattice, tmp_path
    ):
        from repro.dmc.rsm import RSM

        monkey = ChaosMonkey(faults=[FaultSpec("fail-emit", at=1)])
        m = MetricsCollector()
        ck = Checkpointer(
            tmp_path, CheckpointPolicy(every_steps=1), metrics=m, chaos=monkey
        )
        res = RSM(ziff, small_lattice, seed=1, block=512).run(
            until=2.0, checkpoint=ck
        )
        # the run completed despite the failed write...
        assert res.final_time >= 2.0
        snap = m.snapshot()
        assert snap.counter("checkpoint.write_errors") == 1
        # ...and later checkpoints still landed
        assert snap.counter("checkpoint.writes") >= 1
        assert len(checkpoint_paths(tmp_path)) >= 1


class TestEndToEnd:
    def test_chaos_run_resumes_bit_identical(self, ziff, setup, tmp_path):
        """Checkpointing and worker-kill chaos composed in one run."""
        lat, p5 = setup
        ref = _serial_reference(ziff, lat, p5)
        monkey = ChaosMonkey(faults=[FaultSpec("kill-worker", at=2)])
        ck = Checkpointer(tmp_path, CheckpointPolicy(every_steps=1))
        with ParallelChunkExecutor(
            ziff, lat, n_workers=2, chunk_timeout=1.0, chaos=monkey
        ) as ex:
            sim = ParallelPNDCA(
                ziff, lat, seed=42, partition=p5, strategy="ordered",
                executor=ex,
            )
            res = sim.run(until=UNTIL, checkpoint=ck)
        assert monkey.exhausted
        assert np.array_equal(ref.final_state.array, res.final_state.array)
        # the survivor's checkpoints resume into a fresh executor-backed
        # engine bit-identically (randoms are master-drawn either way)
        paths = checkpoint_paths(tmp_path)
        assert paths
        mid = paths[len(paths) // 2]
        with ParallelChunkExecutor(ziff, lat, n_workers=2) as ex2:
            resumed = ParallelPNDCA(
                ziff, lat, seed=0, partition=p5, strategy="ordered",
                executor=ex2,
            ).resume(mid)
            out = resumed.run(until=UNTIL)
        assert np.array_equal(ref.final_state.array, out.final_state.array)
        assert ref.final_time == out.final_time
