"""Supervised worker slots and the one recovery ladder (DESIGN.md §10.2).

The chunk executor (:class:`repro.parallel.executor.ParallelChunkExecutor`)
and the sweep orchestrator (:class:`repro.jobs.orchestrator.JobOrchestrator`)
both run their workers on a :class:`Supervisor` and walk one
:class:`RecoveryLadder`.  Unlike ``multiprocessing.Pool``, a supervisor
knows which worker holds which task: each slot is one ``Process`` with a
task pipe and a result pipe, and the master blocks in
:func:`multiprocessing.connection.wait` over the busy slots' result pipes
and process sentinels, so a dead worker is seen at once.

Every message a worker sends is ``(kind, seq, value)``, ``kind`` being
``"ok"`` or ``"err"``.  The worker's setup answers under sequence id 0
(ready, or the error :meth:`Supervisor.wait` raises as
:class:`WorkerInitError`); each task gets a fresh id, and a reply whose
id is not the slot's outstanding task is dropped.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle as _pickle
import signal as _signal
import time as _time
from dataclasses import dataclass
from multiprocessing import connection as _connection
from typing import Any, Callable

__all__ = ["RecoveryLadder", "Supervisor", "WorkerInitError"]

#: bounded exponential backoff before a retry, in seconds:
#: ``min(BACKOFF_BASE * 2**k, BACKOFF_MAX)`` before retry ``k + 1``
BACKOFF_BASE = 0.05
BACKOFF_MAX = 1.0


class WorkerInitError(RuntimeError):
    """A worker's setup raised; the message carries the worker's error."""


def _default_start_method() -> str:
    """Platform-aware default: ``fork`` where available, else ``spawn``."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _worker_main(task_conn, result_conn, setup: Callable, setup_args: tuple) -> None:
    """The worker process: ``setup(*setup_args)`` returns the handler
    that turns a task payload into a reply value; serve tasks with it.

    ``setup`` is module-level and everything else arrives through the
    arguments and the task pipe, so the loop behaves the same under
    ``fork`` and ``spawn``.  SIGINT is ignored (the master owns
    interrupts); SIGTERM is reset to the default, since under ``fork``
    the orchestrator's flag-only drain handler would otherwise turn
    ``Process.terminate`` into a no-op.  A task is ``(seq, payload,
    delay, die)``; the chaos arming
    ``die``/``delay`` acts before any work, so it leaves no partial effect.
    """
    _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
    try:
        handler = setup(*setup_args)
    except Exception as exc:
        result_conn.send(("err", 0, f"{type(exc).__name__}: {exc}"))
        return
    result_conn.send(("ok", 0, None))
    while True:
        try:
            task = task_conn.recv()
        except (EOFError, OSError):  # master vanished: nothing to serve
            return
        seq, payload, delay, die = task
        if die:  # chaos: SIGKILL this worker before any work
            os.kill(os.getpid(), _signal.SIGKILL)
        if delay:  # chaos: stall past the caller's deadline
            _time.sleep(delay)
        try:
            reply = ("ok", seq, handler(payload))
        except Exception as exc:  # the task failed; the worker survives
            reply = ("err", seq, f"{type(exc).__name__}: {exc}")
        try:
            result_conn.send(reply)
        except (BrokenPipeError, OSError):  # master vanished mid-send
            return


@dataclass
class _Slot:
    """One worker process and the master's ends of its two pipes."""

    wid: int
    process: Any
    task_conn: Any
    result_conn: Any
    seq: int | None = None  # the outstanding task; None when idle
    started_at: float = 0.0
    torn: bool = False  # result pipe unreadable; the sentinel decides

    def stop(self) -> None:
        """Terminate (then kill: C code can ignore SIGTERM) the worker,
        reap it and close the pipes."""
        try:
            if self.process.exitcode is None:
                self.process.terminate()
                self.process.join(timeout=2)
            if self.process.exitcode is None:
                self.process.kill()
            self.process.join(timeout=5)
        except Exception:  # pragma: no cover - teardown best effort
            pass
        for conn in (self.task_conn, self.result_conn):
            conn.close()


class Supervisor:
    """A fixed set of supervised worker slots.

    It only moves tasks and replies; the callers own the policy (the
    :class:`RecoveryLadder`, journaling).  :meth:`submit` binds a task
    to an idle slot, :meth:`wait` reports replies, deaths and deadline
    misses, and :meth:`respawn` replaces one lost slot.
    """

    def __init__(
        self,
        n_workers: int,
        setup: Callable,
        setup_args: tuple = (),
        context: str | None = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.context = context if context is not None else _default_start_method()
        self._ctx = mp.get_context(self.context)
        self._setup = (setup, setup_args)
        self._seq = 0
        self._slots: list[_Slot] = []
        try:
            for wid in range(n_workers):
                self._slots.append(self._spawn(wid))
        except BaseException:
            self.close()
            raise

    def _spawn(self, wid: int) -> _Slot:
        """Start one worker process with fresh task and result pipes."""
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(task_r, result_w, *self._setup),
            daemon=True,
            name=f"repro-worker-{wid}",
        )
        try:
            process.start()
        finally:
            # the master keeps only its own ends; the child holds the others
            task_r.close()
            result_w.close()
        return _Slot(wid, process, task_w, result_r)

    def idle(self) -> list[int]:
        """Slot ids free to take a task, in slot order."""
        return [s.wid for s in self._slots if s.seq is None]

    def submit(self, wid: int, payload: Any, delay: float = 0.0, die: bool = False) -> None:
        """Send one task to an idle slot."""
        slot = self._slots[wid]
        self._seq += 1
        slot.seq = self._seq
        slot.started_at = _time.perf_counter()
        try:
            slot.task_conn.send((slot.seq, payload, delay, die))
        except (BrokenPipeError, OSError):
            pass  # the worker is gone: its sentinel reports the death

    def wait(
        self, timeout: float | None, deadline: float | None = None
    ) -> list[tuple[int, str, Any]]:
        """Block until busy slots reply or die, at most ``timeout`` s.

        Returns ``(wid, kind, value)`` events: ``"ok"``/``"err"`` with
        the handler's value or error message, ``"died"`` with the exit
        code, or ``"late"`` with the seconds a task had run when it
        passed ``deadline`` (its worker is killed).  A dead or killed
        slot takes no task until :meth:`respawn`.  Raises
        :class:`WorkerInitError` when a worker's setup failed.
        """
        busy = [s for s in self._slots if s.seq is not None]
        if deadline is not None and busy:
            left = min(s.started_at for s in busy) + deadline - _time.perf_counter()
            timeout = max(0.0, left if timeout is None else min(timeout, left))
        conns = {s.result_conn: s for s in busy if not s.torn}
        sentinels = {s.process.sentinel: s for s in busy}
        ready = _connection.wait([*conns, *sentinels], timeout)
        events: list[tuple[int, str, Any]] = []
        # replies first: a worker that replied and then died still replied
        for obj in ready:
            if obj in conns:
                self._read(conns[obj], events)
        for obj in ready:
            slot = sentinels.get(obj)
            if slot is not None and slot.seq is not None:
                slot.seq = None
                slot.process.join(timeout=1)  # reap it: the exit code
                events.append((slot.wid, "died", slot.process.exitcode))
        now = _time.perf_counter()
        for slot in busy:
            timed = slot.seq is not None and deadline is not None
            if timed and now - slot.started_at > deadline:
                slot.seq = None
                slot.process.kill()
                slot.process.join(timeout=5)  # gone before we return
                events.append((slot.wid, "late", now - slot.started_at))
        return events

    def _read(self, slot: _Slot, events: list) -> None:
        """Drain one readable result pipe into ``events``."""
        try:
            while slot.seq is not None and slot.result_conn.poll():
                kind, seq, value = slot.result_conn.recv()
                if seq == 0 and kind == "err":
                    raise WorkerInitError(
                        f"worker {slot.wid} failed to start: {value}"
                    )
                if seq != slot.seq:
                    continue  # the ready message, or a stale reply
                slot.seq = None
                events.append((slot.wid, kind, value))
        except (EOFError, OSError, _pickle.UnpicklingError):
            # a torn reply: the process sentinel reports the death
            slot.torn = True

    def respawn(self, wid: int) -> None:
        """Replace one slot with a fresh process and fresh pipes."""
        self._slots[wid].stop()
        self._slots[wid] = self._spawn(wid)

    def close(self) -> None:
        """Stop every worker, running or not (idempotent)."""
        slots, self._slots = self._slots, []
        for slot in slots:
            slot.stop()


@dataclass
class RecoveryLadder:
    """Retry -> backoff -> respawn -> sticky serial, for both callers.

    ``max_retries`` lost attempts of one unit of work (a chunk, a job)
    are retried; the next loss switches the caller to in-process serial
    execution for good (:attr:`degraded`).
    """

    max_retries: int = 2
    degraded: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    def after_failure(self, failures: int) -> float | None:
        """Seconds to wait before retrying after ``failures`` lost attempts.

        ``None`` once the retries are spent: the ladder is then degraded.
        """
        if failures > self.max_retries:
            self.degraded = True
            return None
        return min(BACKOFF_BASE * 2.0 ** (failures - 1), BACKOFF_MAX)
