"""Supervised job workers: one process per slot, pipes for I/O.

The orchestrator does not use ``multiprocessing.Pool`` — a pool hides
*which* worker holds which task, and supervision (per-job deadlines,
kill-and-requeue of exactly the lost job) needs that mapping.  Instead
each worker slot is one ``Process`` plus a dedicated task pipe and
result pipe; the master always knows the single job a slot is running,
detects death by ``is_alive`` polling (a SIGKILL mid-``send`` can
leave a result pipe torn, so EOF alone is not trusted), and respawns
dead slots with fresh pipes.

Spawn safety: :func:`job_worker` is the only code executed in
a worker process.  It is a module-level function, receives everything
through its argument tuple and the task pipe (all picklable — the
scenario spec is a frozen dataclass of plain values), and reads no
master-side mutable module globals, so it behaves identically under
the ``fork`` and ``spawn`` start methods.  Results are returned as
plain tuples; the digest line a worker computes is bit-identical to
the serial runner's because both call
:func:`repro.scenario.runner.run_sweep_point`.

Chaos injection rides in the task tuple (``delay``/``die``), armed by
the master *before* dispatch — exactly the executor's pattern — so an
injected fault acts before any work is done and a retried job replays
from a clean slate.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle as _pickle
import signal as _signal
import time as _time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["JobTask", "WorkerPool", "job_worker"]


def _default_start_method() -> str:
    """Platform-aware default: ``fork`` where available, else ``spawn``."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class JobTask:
    """Everything one worker needs to run one sweep point (picklable).

    ``checkpoint`` is ``(dir, every_steps, every_seconds)`` or ``None``;
    ``delay``/``die`` are the chaos-harness arming points (stall past
    the deadline / SIGKILL before touching any state).
    """

    key: str
    spec: Any  # ScenarioSpec (frozen dataclass; kept Any to stay picklable-opaque)
    overrides: dict
    seed: int | None = None
    until: float | None = None
    backend: str | None = None
    checkpoint: tuple[str, int | None, float | None] | None = None
    delay: float = 0.0
    die: bool = False


def job_worker(task_conn, result_conn, worker_id: int) -> None:
    """Worker-process main loop: recv task, run the point, send the line.

    SIGINT is ignored (the orchestrator owns interactive interrupts and
    drains gracefully; a Ctrl-C must not also tear every worker down
    mid-job).  SIGTERM is explicitly reset to the *default* action:
    under the ``fork`` start method the child inherits whatever handler
    the master installed — the orchestrator's flag-only drain handler —
    which would turn ``Process.terminate`` into a no-op and leave the
    worker blocking in ``recv`` forever (the master may also hold
    cross-inherited pipe ends, so EOF never arrives either).
    Replies are ``("ok", key, line, wall_s)`` or ``("err", key, msg)``;
    a ``None`` task is the shutdown sentinel.
    """
    try:
        _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    from ..scenario.runner import run_sweep_point

    while True:
        try:
            task = task_conn.recv()
        except (EOFError, OSError):  # master vanished: nothing to serve
            return
        if task is None:
            return
        if task.die:  # chaos: SIGKILL this worker before any state change
            os.kill(os.getpid(), _signal.SIGKILL)
        if task.delay:  # chaos: stall past the per-job deadline
            _time.sleep(task.delay)
        try:
            w0 = _time.perf_counter()
            ckpt_dir, ckpt_every, ckpt_seconds = task.checkpoint or (
                None, None, None,
            )
            line = run_sweep_point(
                task.spec,
                task.overrides,
                seed=task.seed,
                until=task.until,
                backend=task.backend,
                checkpoint_dir=ckpt_dir,
                checkpoint_every=ckpt_every,
                checkpoint_seconds=ckpt_seconds,
            )
            reply = ("ok", task.key, line, _time.perf_counter() - w0)
        except Exception as exc:  # the job failed; the worker survives
            reply = ("err", task.key, f"{type(exc).__name__}: {exc}")
        try:
            result_conn.send(reply)
        except (BrokenPipeError, OSError):  # master vanished mid-send
            return


@dataclass
class _Slot:
    """One supervised worker slot (process + its two pipe ends)."""

    process: Any
    task_conn: Any
    result_conn: Any
    busy: bool = False
    key: str | None = None
    started_at: float = 0.0
    generation: int = 0

    def close_pipes(self) -> None:
        for conn in (self.task_conn, self.result_conn):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn
                pass


@dataclass
class WorkerPool:
    """A fixed set of supervised worker slots.

    The pool only moves tasks and replies; *policy* (retries, backoff,
    deadlines, journaling) lives in the orchestrator.  Slots are
    numbered; :meth:`dispatch` binds a task to an idle slot,
    :meth:`collect` drains every readable result pipe, :meth:`reap`
    returns slots whose process died without replying, and
    :meth:`respawn` replaces one slot with a fresh process and pipes.
    """

    n_workers: int = 2
    context: str | None = None
    _slots: dict[int, _Slot] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        self._ctx = mp.get_context(
            self.context if self.context is not None else _default_start_method()
        )
        self._closed = False
        for wid in range(self.n_workers):
            self._slots[wid] = self._spawn(wid, generation=0)

    def _spawn(self, wid: int, generation: int) -> _Slot:
        """Create one worker process with fresh task/result pipes."""
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=job_worker,
            args=(task_r, result_w, wid),
            daemon=True,
            name=f"repro-job-worker-{wid}",
        )
        process.start()
        # master keeps only its own ends; the child holds the others
        task_r.close()
        result_w.close()
        return _Slot(
            process=process,
            task_conn=task_w,
            result_conn=result_r,
            generation=generation,
        )

    # -- dispatch / collect --------------------------------------------
    def idle_slots(self) -> list[int]:
        """Slot ids currently free to take a task (stable order)."""
        return [wid for wid, s in sorted(self._slots.items()) if not s.busy]

    def dispatch(self, wid: int, task: JobTask) -> None:
        """Send one task to an idle slot (marks it busy)."""
        slot = self._slots[wid]
        if slot.busy:
            raise RuntimeError(f"worker slot {wid} is busy with {slot.key!r}")
        slot.task_conn.send(task)
        slot.busy = True
        slot.key = task.key
        slot.started_at = _time.perf_counter()

    def collect(self, timeout: float = 0.05) -> list[tuple[int, tuple]]:
        """Drain every readable result pipe; returns ``(wid, reply)``.

        A torn reply (worker SIGKILLed mid-``send``) is swallowed here —
        the dead process is surfaced by :meth:`reap` instead, so every
        failure has exactly one observable shape.
        """
        out: list[tuple[int, tuple]] = []
        deadline = _time.perf_counter() + timeout
        while True:
            for wid, slot in sorted(self._slots.items()):
                if not slot.busy:
                    continue
                try:
                    if slot.result_conn.poll(0):
                        reply = slot.result_conn.recv()
                        slot.busy = False
                        slot.key = None
                        out.append((wid, reply))
                except (EOFError, OSError, _pickle.UnpicklingError):
                    # torn pipe/pickle: leave the slot busy; reap() will
                    # report the dead process behind it
                    continue
            if out or _time.perf_counter() >= deadline:
                return out
            _time.sleep(min(0.005, timeout))

    def reap(self) -> list[tuple[int, str]]:
        """Busy slots whose process died without a reply: ``(wid, key)``."""
        dead: list[tuple[int, str]] = []
        for wid, slot in sorted(self._slots.items()):
            if slot.busy and not slot.process.is_alive():
                dead.append((wid, slot.key or "?"))
        return dead

    def running(self) -> list[tuple[int, str, float]]:
        """Busy slots as ``(wid, key, seconds_running)``."""
        now = _time.perf_counter()
        return [
            (wid, s.key or "?", now - s.started_at)
            for wid, s in sorted(self._slots.items())
            if s.busy
        ]

    def kill(self, wid: int) -> None:
        """Forcibly terminate one slot's process (deadline enforcement).

        Escalates SIGTERM -> SIGKILL: a worker wedged in C code (or with
        a damaged signal disposition) must still die, or the interpreter
        would hang joining it at exit.
        """
        self._kill_process(self._slots[wid].process)

    @staticmethod
    def _kill_process(process) -> None:
        try:
            process.terminate()
            process.join(timeout=2)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        except Exception:  # pragma: no cover - teardown best effort
            pass

    def respawn(self, wid: int) -> None:
        """Replace one slot with a fresh process and fresh pipes."""
        old = self._slots[wid]
        if old.process.is_alive():
            self.kill(wid)
        old.close_pipes()
        self._slots[wid] = self._spawn(wid, generation=old.generation + 1)

    # -- lifecycle ------------------------------------------------------
    def close(self, graceful: bool = True) -> None:
        """Shut every slot down (idempotent).

        Graceful close sends the ``None`` sentinel and joins briefly;
        anything still alive afterwards — and everything, when
        ``graceful=False`` (the drain path) — is terminated.
        """
        if self._closed:
            return
        self._closed = True
        for slot in self._slots.values():
            if graceful and not slot.busy and slot.process.is_alive():
                try:
                    slot.task_conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for slot in self._slots.values():
            if slot.process.is_alive():
                if graceful and not slot.busy:
                    slot.process.join(timeout=1)
                if slot.process.is_alive():
                    self._kill_process(slot.process)
            slot.close_pipes()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            close = getattr(self, "close", None)
            if close is not None:
                close(graceful=False)
        except BaseException:
            pass
