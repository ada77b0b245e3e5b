"""Opt-in span/event tracing hooks for the simulation engines.

Tracing answers *when* questions the aggregate metrics can't: which
chunk was visited at which point of a step, when observers sampled,
how long a named span took.  It is strictly opt-in — engines default
to :data:`NULL_TRACER`, whose hooks are no-ops and whose
:meth:`~Tracer.span` returns one shared reusable null context manager,
so the disabled path performs no allocation and no branching beyond
the null object's method dispatch.

Hook points (wired by the engines):

``on_step(step_no, sim_time)``
    after every algorithm step block (:meth:`SimulatorBase.run` loop);
``on_chunk(chunk_index, size, sim_time)``
    after every chunk visit (PNDCA / L-PNDCA / type-partitioned CA /
    parallel executor);
``on_snapshot(sim_time)``
    whenever at least one observer sampled a grid point;
``on_recovery(kind, detail)``
    whenever the executor or the orchestrator walks a rung of the
    recovery ladder (chunk retry, worker respawn, serial fallback) — recorded
    with ``sim_time = -1`` since recovery happens between trials;
``on_job(key, status, detail)``
    whenever the batch orchestrator (:mod:`repro.jobs`) moves a job
    through its state machine (submit / start / done / fail / degrade /
    drain) — also ``sim_time = -1``: campaign bookkeeping has no
    simulated clock.

Events are recorded as plain tuples; :meth:`Tracer.to_records` renders
them as JSON-ready dicts.
An enabled tracer grows with the run — it is a debugging/benchmark
instrument, not an always-on logger.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass(frozen=True)
class Span:
    """One completed named span (wall-clock seconds)."""

    name: str
    start: float
    end: float
    attrs: tuple[tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        """Elapsed wall time of the span."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-ready plain dict."""
        return {
            "kind": "span",
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            **dict(self.attrs),
        }


class Tracer:
    """Records spans and engine events with wall-clock timestamps."""

    #: class-level flag, False on the null subclass (cf. MetricsCollector)
    enabled: bool = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: event tuples ``(kind, wall_time, sim_time, payload)``
        self.events: list[tuple[str, float, float, dict]] = []

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Record a named span around the ``with`` block."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                Span(name, t0, time.perf_counter(), tuple(attrs.items()))
            )

    # -- engine hooks --------------------------------------------------
    def on_step(self, step_no: int, sim_time: float) -> None:
        """One algorithm step block completed."""
        self.events.append(
            ("step", time.perf_counter(), sim_time, {"step": step_no})
        )

    def on_chunk(self, chunk_index: int, size: int, sim_time: float) -> None:
        """One chunk visit completed."""
        self.events.append(
            (
                "chunk",
                time.perf_counter(),
                sim_time,
                {"chunk": chunk_index, "size": size},
            )
        )

    def on_snapshot(self, sim_time: float) -> None:
        """At least one observer sampled at ``sim_time``."""
        self.events.append(("snapshot", time.perf_counter(), sim_time, {}))

    def on_recovery(self, kind: str, detail: dict | None = None) -> None:
        """A fault-recovery action ran (retry / respawn / fallback)."""
        self.events.append(
            ("recovery", time.perf_counter(), -1.0, {"recovery": kind, **(detail or {})})
        )

    def on_job(self, key: str, status: str, detail: dict | None = None) -> None:
        """A batch-orchestrator job changed state (see repro.jobs)."""
        self.events.append(
            (
                "job",
                time.perf_counter(),
                -1.0,
                {"key": key, "status": status, **(detail or {})},
            )
        )

    # -- export --------------------------------------------------------
    def to_records(self) -> list[dict]:
        """Spans + events as JSON-ready dicts, one per span or event."""
        records: list[dict] = [s.to_dict() for s in self.spans]
        records += [
            {"kind": kind, "wall": wall, "sim_time": sim_time, **payload}
            for kind, wall, sim_time, payload in self.events
        ]
        return records


_NULL_CM = nullcontext()


class NullTracer(Tracer):
    """The disabled tracer: hooks are no-ops, spans cost nothing."""

    enabled = False

    def __init__(self) -> None:  # the null object stores nothing
        pass

    def span(self, name: str, **attrs: Any):  # type: ignore[override]
        """A shared reusable null context manager (no allocation)."""
        return _NULL_CM

    def on_step(self, step_no: int, sim_time: float) -> None:
        """No-op."""

    def on_chunk(self, chunk_index: int, size: int, sim_time: float) -> None:
        """No-op."""

    def on_snapshot(self, sim_time: float) -> None:
        """No-op."""

    def on_recovery(self, kind: str, detail: dict | None = None) -> None:
        """No-op."""

    def on_job(self, key: str, status: str, detail: dict | None = None) -> None:
        """No-op."""

    def to_records(self) -> list[dict]:
        """Always empty."""
        return []


#: the shared disabled tracer — engines default to it
NULL_TRACER = NullTracer()
