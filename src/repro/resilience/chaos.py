"""Deterministic chaos harness: seeded fault injection for recovery paths.

Fault tolerance that is never exercised is a hope, not a property.
This module injects the failure modes the resilience and jobs layers
claim to survive — reproducibly, so every recovery path runs in the
test suite on every commit:

``kill-worker``
    a chunk worker SIGKILLs itself at the start of its slice, mid-chunk;
``delay-slice``
    a slice sleeps past the executor's per-chunk deadline before doing
    any work (a stuck worker);
``corrupt-checkpoint``
    a just-written checkpoint file is truncated or byte-flipped (a
    crash or bad disk after the atomic rename);
``fail-emit``
    the checkpoint write raises ``OSError`` before touching the file
    (disk full / permissions at emit time);
``kill-job``
    a batch-orchestrator worker SIGKILLs itself before touching any
    state of its assigned job (a node death mid-campaign);
``stall-job``
    a job worker sleeps past the orchestrator's per-job deadline
    before doing any work (a wedged job);
``corrupt-journal``
    the just-appended journal record is truncated or byte-flipped —
    the torn-tail write a crash mid-append produces.

Determinism contract: a :class:`ChaosMonkey` fires a fault when the
*poll counter* of the fault's channel reaches ``FaultSpec.at`` — the
n-th chunk dispatch, the n-th checkpoint write — independent of wall
clock or scheduling.  The seeded generator is used only for payload
details (corruption offsets), so a given ``(seed, faults)`` pair
replays the identical failure scenario every time.

Wiring: pass the monkey as ``chaos=`` to
:class:`repro.parallel.executor.ParallelChunkExecutor` (channel
``"chunk"``), :class:`repro.resilience.checkpoint.Checkpointer`
(channels ``"checkpoint"`` and ``"emit"``), and/or
:class:`repro.jobs.orchestrator.JobOrchestrator` (channels ``"job"``
and ``"journal"``; the CLI spelling is ``repro sweep --chaos
kill-job@3``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["CHAOS_KINDS", "FaultSpec", "ChaosMonkey"]

#: fault kind -> the poll channel it listens on
CHAOS_KINDS: dict[str, str] = {
    "kill-worker": "chunk",
    "delay-slice": "chunk",
    "corrupt-checkpoint": "checkpoint",
    "fail-emit": "emit",
    "kill-job": "job",
    "stall-job": "job",
    "corrupt-journal": "journal",
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fire ``kind`` on the ``at``-th channel poll.

    ``delay`` (seconds) parameterises ``delay-slice``; ``mode``
    (``"truncate"`` or ``"flip"``) parameterises ``corrupt-checkpoint``.
    """

    kind: str
    at: int = 1
    delay: float = 2.0
    mode: str = "truncate"

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {sorted(CHAOS_KINDS)}"
            )
        if self.at < 1:
            raise ValueError(f"at must be >= 1, got {self.at}")
        if self.mode not in ("truncate", "flip"):
            raise ValueError(f"unknown corruption mode {self.mode!r}")


@dataclass
class ChaosMonkey:
    """Seeded deterministic fault injector.

    Parameters
    ----------
    seed:
        Seeds the generator used for corruption payload details only
        (never for *when* a fault fires — that is the poll counter).
    faults:
        The :class:`FaultSpec` schedule.  Each spec fires exactly once.

    The :attr:`fired` log records ``(kind, channel, poll_count)`` for
    every fault delivered, so tests can assert the scenario actually
    happened.
    """

    seed: int = 0
    faults: tuple[FaultSpec, ...] = ()
    fired: list[tuple[str, str, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.faults = tuple(self.faults)
        self.rng = np.random.default_rng(self.seed)
        self._counts: dict[str, int] = {}
        self._delivered: set[int] = set()

    def poll(self, channel: str) -> FaultSpec | None:
        """Advance the channel's poll counter; return a fault due now."""
        count = self._counts.get(channel, 0) + 1
        self._counts[channel] = count
        for i, spec in enumerate(self.faults):
            if i in self._delivered:
                continue
            if CHAOS_KINDS[spec.kind] == channel and spec.at == count:
                self._delivered.add(i)
                self.fired.append((spec.kind, channel, count))
                return spec
        return None

    def arm(self, channel: str) -> tuple[float, bool]:
        """Poll a worker channel: the task's ``(delay, die)`` arming
        (``kill-*`` dies, ``delay-slice``/``stall-job`` sleep)."""
        spec = self.poll(channel)
        if spec is None:
            return 0.0, False
        if spec.kind in ("kill-worker", "kill-job"):
            return 0.0, True
        return spec.delay, False

    @property
    def exhausted(self) -> bool:
        """True when every scheduled fault has been delivered."""
        return len(self._delivered) == len(self.faults)

    def corrupt_file(
        self,
        path: str | Path,
        mode: str = "truncate",
        tail: int | None = None,
    ) -> None:
        """Damage a file deterministically (truncate / flip a byte).

        With ``tail=N`` the damage is confined to the file's last ``N``
        bytes — the shape of a *torn write*, where only the record
        being appended when the crash hit can be incomplete.  The jobs
        layer passes the final journal line's length here, so
        ``corrupt-journal`` produces exactly the failure the torn-tail
        recovery path claims to survive.  Without ``tail`` the whole
        file is fair game (the checkpoint-corruption behaviour,
        draw-for-draw identical to previous releases).
        """
        path = Path(path)
        data = path.read_bytes()
        if not data:
            return
        start = 0 if tail is None else max(0, len(data) - tail)
        if mode == "truncate":
            # keep a non-empty prefix so the damage is a *plausible*
            # partial write, not an obviously empty file
            if tail is None:
                keep = max(1, int(self.rng.integers(1, max(2, len(data)))))
                path.write_bytes(data[: min(keep, len(data) - 1)])
            else:
                # cut inside the tail region: at least one tail byte
                # survives, at least one is lost
                lo = min(start + 1, len(data) - 1)
                keep = int(self.rng.integers(lo, len(data)))
                path.write_bytes(data[:keep])
        else:  # flip
            pos = int(self.rng.integers(start, len(data)))
            flipped = bytes([data[pos] ^ 0xFF])
            path.write_bytes(data[:pos] + flipped + data[pos + 1 :])
