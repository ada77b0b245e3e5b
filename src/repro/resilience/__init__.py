"""repro.resilience — checkpoint/resume, fault tolerance, chaos testing.

The parallel claim of the paper only matters in production if runs
survive real failures: a worker SIGKILLed mid-chunk, a slice stuck past
its deadline, a checkpoint file truncated by a crash, a full disk at
emit time.  This package makes every engine in the repository
restartable and every recovery path testable:

* :mod:`repro.resilience.checkpoint` — the ``repro.ckpt/1`` schema:
  CRC-guarded, atomically written snapshots of lattice state, RNG
  bit-generator state, simulation time, trial counts and an
  engine/model fingerprint.  :class:`CheckpointPolicy` (every-N-steps /
  every-T-seconds) and :class:`Checkpointer` hook into the ``run()``
  loops of :class:`repro.dmc.base.SimulatorBase` and
  :class:`repro.ensemble.base.EnsembleBase`; ``Engine.resume(path)``
  restores with a hard guarantee that a resumed run is bit-identical
  to an uninterrupted one at the same seed.  :func:`use_checkpoints`
  installs an ambient checkpointer (cf.
  :func:`repro.obs.metrics.use_metrics`) plus SIGINT/SIGTERM handlers
  that flush a final checkpoint at the next step boundary.
* :mod:`repro.resilience.chaos` — a *seeded, deterministic* fault
  injector: kill a worker mid-slice, delay a slice past its deadline,
  truncate/corrupt a checkpoint, fail an emit write.  Every recovery
  path of the executor and the checkpointer is exercised reproducibly
  in ``tests/test_chaos.py`` rather than trusted on faith.
* :mod:`repro.resilience.supervisor` — the one supervised worker pool
  (a ``Process``, a task pipe and a result pipe per slot) and the one
  recovery ladder (retry after backoff, respawning only the lost slot,
  then sticky in-process serial execution), shared by
  :class:`repro.parallel.executor.ParallelChunkExecutor` and
  :class:`repro.jobs.orchestrator.JobOrchestrator`; recoveries surface
  as ``obs`` trace events and ``executor.*`` / ``jobs.*`` counters.

See DESIGN.md §10 for the checkpoint schema, the supervisor and the
recovery ladder.
"""

from .chaos import CHAOS_KINDS, ChaosMonkey, FaultSpec
from .checkpoint import (
    CKPT_SCHEMA,
    CheckpointCorruptError,
    CheckpointMismatchError,
    CheckpointPolicy,
    Checkpointer,
    ResilienceError,
    checkpoint_paths,
    current_checkpointer,
    decode_array,
    encode_array,
    engine_fingerprint,
    last_good_checkpoint,
    load_checkpoint,
    use_checkpoints,
    write_checkpoint,
)

__all__ = [
    # checkpoint
    "CKPT_SCHEMA",
    "ResilienceError",
    "CheckpointCorruptError",
    "CheckpointMismatchError",
    "CheckpointPolicy",
    "Checkpointer",
    "checkpoint_paths",
    "current_checkpointer",
    "use_checkpoints",
    "encode_array",
    "decode_array",
    "engine_fingerprint",
    "last_good_checkpoint",
    "load_checkpoint",
    "write_checkpoint",
    # chaos
    "CHAOS_KINDS",
    "ChaosMonkey",
    "FaultSpec",
]
