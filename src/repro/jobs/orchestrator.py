"""Crash-safe batch orchestration of scenario sweeps.

:class:`JobOrchestrator` expands one or more scenarios into a job set
— one job per sweep grid point, keyed by
:func:`~repro.jobs.journal.job_key` over ``(scenario digest,
overrides)`` — and executes it on the worker slots of a
:class:`~repro.resilience.supervisor.Supervisor`.  Every state
transition is journaled *before* the orchestrator acts on it (the
write-ahead discipline), so a crash at point 37 of 120 costs at most
the in-flight points:

============  ========================================================
event         meaning
============  ========================================================
``campaign``  header: scenario digests, job count, knob settings
``submit``    one job exists (key, scenario, overrides, label)
``start``     a job was handed to a worker slot (or the serial rung)
``done``      a job finished; the record carries its full digest line
``fail``      an attempt died (worker death, deadline miss, error)
``degrade``   a job exhausted its retries; orchestrator goes serial
``drain``     SIGINT/SIGTERM arrived; running+pending keys journaled
``complete``  the campaign finished (done/failed tallies)
============  ========================================================

Failure ladder (the executor's, DESIGN.md §10.2): a lost attempt is
requeued after the shared backoff and only its worker slot respawned; a
job that exhausts ``max_retries`` flips the orchestrator into **sticky
in-process serial degradation** through the workers' own handler, so a
degraded campaign is slower but bit-identical.

Determinism is the cache: a completed job's journal record carries the
full ``sweep ... digest ...`` line, so ``--resume`` replays the journal,
re-prints completed lines bit for bit, and runs only what is missing.
The sorted digest-line set of *any* interleaving of crashes, retries
and resumes equals the serial baseline (one
:func:`~repro.scenario.runner.run_sweep_point` call per grid point, in
order) — CI's ``jobs-soak`` gate asserts exactly that.

SIGINT/SIGTERM drain the campaign: while jobs run, the orchestrator's
handler (under :func:`~repro.resilience.checkpoint.signal_trap`) only
sets a flag, and the supervision loop journals the interrupted jobs and
returns 130.
"""

from __future__ import annotations

import math
import sys
import time as _time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from ..obs.metrics import NULL_METRICS, MetricsCollector
from ..obs.trace import NULL_TRACER, Tracer
from ..resilience.checkpoint import signal_trap
from ..resilience.supervisor import RecoveryLadder, Supervisor
from .journal import (
    JOURNAL_NAME,
    JournalError,
    JournalReplay,
    JournalWriter,
    job_key,
    replay_journal,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.chaos import ChaosMonkey
    from ..scenario.spec import ScenarioSpec

__all__ = ["Job", "JobOrchestrator"]

#: longest block of the supervision wait: a drain signal (whose handler
#: only sets a flag), a deadline or a backoff window is acted on within it
_TICK = 0.05


def _sweep_point_runner(seed, until, backend):
    """Worker setup: the handler that runs one sweep point.

    The handler takes ``(spec, overrides, checkpoint keywords)`` and
    returns ``(digest line, wall seconds)``.  Workers and the serial
    rung run the same handler, so their digest lines are bit-identical
    (both call :func:`repro.scenario.runner.run_sweep_point`).
    """
    from ..scenario.runner import run_sweep_point

    def run(payload):
        spec, overrides, checkpoint = payload
        w0 = _time.perf_counter()
        line = run_sweep_point(
            spec, overrides, seed=seed, until=until, backend=backend, **checkpoint
        )
        return line, _time.perf_counter() - w0

    return run


@dataclass
class Job:
    """One sweep point and its retry state."""

    key: str
    spec: "ScenarioSpec"
    overrides: dict
    label: str
    order: int
    attempt: int = 0
    not_before: float = 0.0


@dataclass
class JobOrchestrator:
    """Run a scenario sweep as a supervised, journaled job set.

    Parameters mirror the executor's fault-tolerance knobs: ``deadline``
    is the per-job wall-clock budget (``None`` disables the timer; a
    worker death is still seen at once), ``max_retries`` the attempts
    per job before the serial rung.  ``journal_dir`` enables the
    write-ahead journal (and with it ``resume``); ``checkpoint_dir``
    gives every job its own ``<dir>/<jobkey>/`` checkpoint subdirectory.  ``chaos`` arms
    the ``kill-job`` / ``stall-job`` / ``corrupt-journal`` channels.
    """

    specs: tuple
    n_workers: int = 2
    journal_dir: str | Path | None = None
    max_retries: int = 2
    deadline: float | None = None
    seed: int | None = None
    until: float | None = None
    backend: str | None = None
    checkpoint_dir: str | Path | None = None
    checkpoint_every: int | None = None
    checkpoint_seconds: float | None = None
    chaos: "ChaosMonkey | None" = None
    metrics: MetricsCollector = field(default_factory=lambda: NULL_METRICS)
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)
        if not self.specs:
            raise JournalError("no scenarios to orchestrate")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        self._ladder = RecoveryLadder(self.max_retries)
        if self.deadline is not None and not (
            math.isfinite(self.deadline) and self.deadline > 0
        ):
            raise ValueError(f"deadline must be > 0, got {self.deadline}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self._writer: JournalWriter | None = None
        self._signal: int | None = None
        # campaign tallies (also journaled in the complete record)
        self.n_done = 0
        self.n_cached = 0
        self.n_failed = 0
        self.n_retries = 0
        self.n_respawns = 0

    # ------------------------------------------------------------------
    # job expansion
    # ------------------------------------------------------------------
    def expand_jobs(self) -> list[Job]:
        """The campaign's job set, in deterministic grid order."""
        from ..scenario.compile import lint_scenario
        from ..scenario.runner import format_overrides

        jobs: list[Job] = []
        for spec in self.specs:
            # fail closed before any worker exists, exactly like the
            # serial runner: an unlintable scenario never reaches a pool
            lint_scenario(spec)
            digest = spec.digest()
            grid = spec.sweep.grid() if spec.sweep is not None else [{}]
            for overrides in grid:
                jobs.append(
                    Job(
                        key=job_key(digest, overrides),
                        spec=spec,
                        overrides=dict(overrides),
                        label=format_overrides(overrides) or "(base)",
                        order=len(jobs),
                    )
                )
        return jobs

    # ------------------------------------------------------------------
    # journal plumbing
    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> Path | None:
        """The journal file under ``journal_dir`` (``None`` when disabled)."""
        if self.journal_dir is None:
            return None
        return Path(self.journal_dir) / JOURNAL_NAME

    def _journal(self, payload: dict) -> None:
        """Append one WAL record, then let chaos tear it.

        A ``corrupt-journal`` fault is a *crash mid-append*: it damages
        the line just written and then aborts the campaign — if the
        orchestrator kept appending, the damage would end up inside the
        settled prefix, which is a different failure (real corruption)
        with a different contract (refuse, don't recover).
        """
        if self._writer is None:
            return
        self._writer.append(payload)
        if self.chaos is not None:
            spec = self.chaos.poll("journal")
            if spec is not None:
                self.chaos.corrupt_file(
                    self._writer.path,
                    mode=spec.mode,
                    tail=self._writer.last_line_bytes,
                )
                raise JournalError(
                    f"chaos: tore journal record "
                    f"({payload.get('event', '?')}) mid-append — "
                    f"simulated crash; resume with --resume"
                )

    def _validate_replay(self, replay: JournalReplay, jobs: list[Job]) -> None:
        """Refuse to resume a journal written by a different campaign."""
        campaigns = list(replay.events("campaign"))
        if not campaigns:
            raise JournalError(
                f"{replay.path}: no campaign record survived — nothing to resume"
            )
        recorded = sorted(campaigns[0].get("digests", []))
        current = sorted({job.spec.digest() for job in jobs})
        if recorded != current:
            raise JournalError(
                f"{replay.path}: journal belongs to a different campaign "
                f"(scenario digests {recorded} != {current}); a scenario "
                f"edit invalidates its journal — start a fresh --journal"
            )

    def _on_signal(self, signum: int, frame: Any) -> None:
        """Drain request: set the flag, no I/O inside the handler."""
        self._signal = signum

    # ------------------------------------------------------------------
    # the campaign
    # ------------------------------------------------------------------
    def run(self, resume: bool = False, out=None) -> int:
        """Execute (or resume) the campaign; returns the exit code.

        0 on full success, 1 when any job failed permanently, 130 when
        a signal drained the campaign (resume later with ``--resume``).
        """
        out = out if out is not None else sys.stdout
        jobs = self.expand_jobs()
        for spec in self.specs:
            print(
                f"scenario {spec.name} ({spec.source}) "
                f"digest {spec.short_digest()}",
                file=out, flush=True,
            )
        print(f"sweep: {len(jobs)} point(s), {self.n_workers} worker(s)",
              file=out, flush=True)

        completed: dict[str, dict] = {}
        path = self.journal_path
        if resume:
            if path is None:
                raise JournalError(
                    "--resume needs --journal DIR (the write-ahead journal "
                    "is what a resume replays)"
                )
            if not path.exists():
                raise JournalError(f"{path}: no journal to resume")
            replay = replay_journal(path)
            if replay.torn:
                print(replay.describe_tail(), file=out, flush=True)
                # drop the torn record physically: appending after it
                # would turn it into (refused) mid-file corruption
                replay.truncate_torn_tail()
            self._validate_replay(replay, jobs)
            completed = replay.completed()
        elif path is not None and path.exists() and path.stat().st_size > 0:
            raise JournalError(
                f"{path}: journal already exists — pass --resume to "
                f"continue it, or point --journal at a fresh directory"
            )

        if path is not None:
            self._writer = JournalWriter(path)
        try:
            return self._run_jobs(jobs, completed, out)
        finally:
            if self._writer is not None:
                self._writer.close()
                self._writer = None

    def _checkpoint_for(self, job: Job) -> dict:
        """Per-job checkpoint keywords: subdirectory ``<dir>/<jobkey>/``."""
        if self.checkpoint_dir is None:
            return {}
        return {
            "checkpoint_dir": str(Path(self.checkpoint_dir) / job.key),
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_seconds": self.checkpoint_seconds,
        }

    def _run_jobs(
        self, jobs: list[Job], completed: dict[str, dict], out
    ) -> int:
        resumed = bool(completed)
        self._journal(
            {
                "event": "campaign",
                "digests": sorted({j.spec.digest() for j in jobs}),
                "scenarios": [s.name for s in self.specs],
                "n_jobs": len(jobs),
                "resumed": resumed,
                "knobs": {
                    "workers": self.n_workers,
                    "max_retries": self.max_retries,
                    "deadline": self.deadline,
                },
            }
        )
        # cached lines first, in grid order: a resumed campaign's output
        # is the uninterrupted campaign's output, reordered at most by
        # worker completion order of the still-missing points
        cached = [j for j in jobs if j.key in completed]
        for job in cached:
            line = completed[job.key].get("line")
            if line:
                print(line, file=out, flush=True)
                self.n_cached += 1
                self.tracer.on_job(job.key, "cached")
        if resumed:
            print(
                f"resume: {self.n_cached} cached, "
                f"{len(jobs) - len(cached)} to run",
                file=out, flush=True,
            )
        todo = [j for j in jobs if j.key not in completed]
        if not resumed:
            for job in todo:
                self._journal(
                    {
                        "event": "submit",
                        "key": job.key,
                        "scenario": job.spec.name,
                        "overrides": job.overrides,
                        "label": job.label,
                    }
                )
                self.tracer.on_job(job.key, "submit")
        failed: dict[str, str] = {}
        with signal_trap(self._on_signal):
            serial = self._supervise(todo, out, failed)
            if self._signal is not None:
                return 130
            self._run_serial(serial, out, failed)
            if self._signal is not None:
                return 130
        self._journal(
            {
                "event": "complete",
                "n_done": self.n_done,
                "n_cached": self.n_cached,
                "n_failed": len(failed),
            }
        )
        self.n_failed = len(failed)
        status = "degraded" if self._ladder.degraded else "ok"
        print(
            f"jobs: {self.n_done} done, {self.n_cached} cached, "
            f"{len(failed)} failed, {self.n_retries} retries, "
            f"{self.n_respawns} respawns ({status})",
            file=out, flush=True,
        )
        for key, error in sorted(failed.items()):
            print(f"failed {key}: {error}", file=out, flush=True)
        return 1 if failed else 0

    def _supervise(
        self, todo: list[Job], out, failed: dict[str, str]
    ) -> list[Job]:
        """The supervised-worker phase; returns jobs left for the serial rung.

        Runs until every job is done, degraded to serial, or a drain
        signal arrives.  Worker death, deadline misses and in-worker
        errors all funnel through :meth:`_attempt_failed`.
        """
        m = self.metrics
        pending: deque[Job] = deque(todo)
        inflight: dict[int, Job] = {}  # worker slot -> its job
        serial: list[Job] = []
        if not todo:
            return serial
        pool = Supervisor(
            self.n_workers,
            _sweep_point_runner,
            (self.seed, self.until, self.backend),
        )
        try:
            while pending or inflight:
                if self._signal is not None:
                    self._drain(pending, inflight.values(), out)
                    return []
                if self._ladder.degraded and not inflight:
                    # sticky serial rung takes everything still queued
                    serial.extend(sorted(pending, key=lambda j: j.order))
                    pending.clear()
                    break
                now = _time.perf_counter()
                if not self._ladder.degraded:
                    for wid in pool.idle():
                        job = self._next_ready(pending, now)
                        if job is None:
                            break
                        delay, die = (
                            (0.0, False) if self.chaos is None
                            else self.chaos.arm("job")
                        )
                        self._journal(
                            {
                                "event": "start",
                                "key": job.key,
                                "attempt": job.attempt + 1,
                                "worker": wid,
                            }
                        )
                        self.tracer.on_job(
                            job.key, "start", {"worker": wid}
                        )
                        pool.submit(
                            wid,
                            (job.spec, job.overrides, self._checkpoint_for(job)),
                            delay=delay,
                            die=die,
                        )
                        inflight[wid] = job
                        m.inc("jobs.dispatched")
                m.set_gauge("jobs.queue.depth", len(pending))
                for wid, kind, value in pool.wait(_TICK, deadline=self.deadline):
                    job = inflight.pop(wid)
                    if kind == "ok":
                        line, wall = value
                        self._job_done(job, line, wall, out)
                    elif kind == "err":
                        self._attempt_failed(job, value, pending, serial, failed)
                    else:  # the worker died, or was killed at the deadline
                        error, why = "worker died (killed or crashed)", {}
                        if kind == "late":
                            error = (f"deadline exceeded ({value:.2f}s > "
                                     f"{self.deadline:g}s)")
                            why = {"why": "deadline"}
                        self._attempt_failed(job, error, pending, serial, failed)
                        m.inc("jobs.respawns")
                        self.n_respawns += 1
                        self.tracer.on_recovery(
                            "worker-respawn",
                            {"worker": wid, "key": job.key, **why},
                        )
                        pool.respawn(wid)
        finally:
            pool.close()
        return sorted(serial, key=lambda j: j.order)

    @staticmethod
    def _next_ready(pending: deque[Job], now: float) -> Job | None:
        """Pop the first job whose backoff window has elapsed."""
        for _ in range(len(pending)):
            job = pending.popleft()
            if job.not_before <= now:
                return job
            pending.append(job)
        return None

    def _job_done(self, job: Job, line: str, wall: float, out) -> None:
        self._journal(
            {
                "event": "done",
                "key": job.key,
                "attempt": job.attempt + 1,
                "line": line,
                "wall_s": wall,
            }
        )
        print(line, file=out, flush=True)
        self.n_done += 1
        self.metrics.observe("jobs.wall", wall)
        self.tracer.on_job(job.key, "done", {"wall_s": wall})

    def _attempt_failed(
        self,
        job: Job,
        error: str,
        pending: deque[Job],
        serial: list[Job],
        failed: dict[str, str],
    ) -> None:
        """One attempt lost: journal it and walk the ladder."""
        job.attempt += 1
        self._journal(
            {
                "event": "fail",
                "key": job.key,
                "attempt": job.attempt,
                "error": error,
            }
        )
        self.metrics.inc("jobs.retries")
        self.n_retries += 1
        self.tracer.on_job(job.key, "fail", {"error": error})
        delay = self._ladder.after_failure(job.attempt)
        if delay is not None:
            job.not_before = _time.perf_counter() + delay
            pending.append(job)
            return
        # out of retries: this job — and, sticky, everything after it —
        # runs on the in-process serial rung
        self._journal({"event": "degrade", "key": job.key})
        self.metrics.inc("jobs.degraded")
        self.tracer.on_recovery("serial-fallback", {"key": job.key})
        serial.append(job)

    def _run_serial(
        self, serial: list[Job], out, failed: dict[str, str]
    ) -> None:
        """The last rung: run jobs in-process, in grid order.

        Same handler as the workers, same backend, same per-job
        checkpoint directory — a degraded campaign's digest lines are
        bit-identical to a healthy one's.
        """
        run = _sweep_point_runner(self.seed, self.until, self.backend)
        for i, job in enumerate(serial):
            if self._signal is not None:
                self._drain(serial[i:], (), out)
                return
            self._journal(
                {
                    "event": "start",
                    "key": job.key,
                    "attempt": job.attempt + 1,
                    "worker": "serial",
                }
            )
            try:
                line, wall = run(
                    (job.spec, job.overrides, self._checkpoint_for(job))
                )
            except Exception as exc:  # permanent: the last rung failed
                job.attempt += 1
                error = f"{type(exc).__name__}: {exc}"
                self._journal(
                    {
                        "event": "fail",
                        "key": job.key,
                        "attempt": job.attempt,
                        "error": error,
                        "permanent": True,
                    }
                )
                self.metrics.inc("jobs.failed")
                self.tracer.on_job(job.key, "fail", {"error": error})
                failed[job.key] = error
                continue
            self._job_done(job, line, wall, out)

    def _drain(
        self, pending: Iterable[Job], inflight: Iterable[Job], out
    ) -> None:
        """Journal what a signal interrupted, so resume can pick it up."""
        running = sorted(j.key for j in inflight)
        queued = sorted(j.key for j in pending)
        self._journal(
            {
                "event": "drain",
                "signal": self._signal,
                "running": running,
                "pending": queued,
            }
        )
        self.tracer.on_job("-", "drain", {"signal": self._signal})
        print(
            f"drain: signal {self._signal} — journaled {len(running)} "
            f"running and {len(queued)} pending job(s); resume with "
            f"--resume",
            file=out, flush=True,
        )
