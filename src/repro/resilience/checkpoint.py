"""Checkpoint/resume: the ``repro.ckpt/1`` schema and the run-loop hook.

A checkpoint snapshots everything an engine's ``run()`` loop mutates —
lattice state, RNG ``bit_generator.state`` (read through the
transparent :class:`~repro.obs.metrics.CountingGenerator` wrapper when
metrics are on), simulation time, trial counts, per-type executed
counts, engine-specific extras (e.g. the PNDCA partition-cycle step
number) and the observers' sampled series — plus a fingerprint of the
model/lattice/algorithm binding so a checkpoint can never be restored
into the wrong engine.  Restoring all of it makes the hard guarantee
hold: a run checkpointed at step ``k`` and resumed is **bit-identical**
to the same run uninterrupted (asserted for every engine in
``tests/test_resilience.py``).

Schema ``repro.ckpt/1``::

    {
      "schema":  "repro.ckpt/1",
      "crc32":   int,       # CRC-32 of the canonical payload JSON
      "payload": {
        "kind":              "simulator",
        "algorithm":         str,
        "model":             str,
        "lattice":           [int, ...],
        "time_mode":         str,
        "fingerprint":       str,     # sha-256/16 of the engine binding
        "seed":              int | null,
        "time":              float,
        "n_trials":          int,
        "executed_per_type": [int, ...],
        "state":             {"dtype", "shape", "data"}  (base64),
        "rng":               bit-generator state dict,
        "extra":             engine-specific dict,
        "observers":         observer state
      }
    }

Files are written atomically (:func:`repro.obs.emit.write_json_atomic`)
so a crash mid-write never leaves a truncated checkpoint; damage that
slips through anyway (truncation by a dying filesystem, a flipped
byte) is caught by the CRC and raised as
:class:`CheckpointCorruptError` *naming the last good checkpoint in
the directory* instead of a bare deserialization traceback.
"""

from __future__ import annotations

import base64
import json
import re
import signal as _signal
import time as _time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

import numpy as np

from ..obs.emit import write_json_atomic
from ..obs.metrics import MetricsCollector, current_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .chaos import ChaosMonkey

__all__ = [
    "CKPT_SCHEMA",
    "ResilienceError",
    "CheckpointCorruptError",
    "CheckpointMismatchError",
    "CheckpointPolicy",
    "Checkpointer",
    "checkpoint_paths",
    "signal_trap",
    "encode_array",
    "decode_array",
    "engine_fingerprint",
    "last_good_checkpoint",
    "load_checkpoint",
    "write_checkpoint",
]

#: schema identifier stamped into every checkpoint file
CKPT_SCHEMA = "repro.ckpt/1"

#: checkpoint file name pattern: ``ckpt_<tag>_<trials>.json``
_CKPT_NAME = re.compile(r"^ckpt_.+_(\d+)\.json$")


class ResilienceError(RuntimeError):
    """Base class for checkpoint/recovery failures."""


class CheckpointCorruptError(ResilienceError):
    """A checkpoint file is truncated, CRC-mismatched or malformed."""


class CheckpointMismatchError(ResilienceError):
    """A checkpoint does not belong to the engine trying to restore it."""


# ----------------------------------------------------------------------
# array / rng-state codecs
# ----------------------------------------------------------------------
def encode_array(array: np.ndarray) -> dict:
    """Encode an array as ``{dtype, shape, data}`` with base64 payload."""
    a = np.ascontiguousarray(array)
    return {
        "dtype": str(a.dtype),
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def decode_array(record: dict) -> np.ndarray:
    """Decode the output of :func:`encode_array` (exact round trip)."""
    try:
        raw = base64.b64decode(record["data"], validate=True)
        a = np.frombuffer(raw, dtype=np.dtype(record["dtype"]))
        return a.reshape(record["shape"]).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorruptError(f"undecodable array record: {exc}") from exc


def _plain(value: Any) -> Any:
    """Recursively coerce a bit-generator state dict to plain JSON types."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        # Philox/SFC-style states carry arrays; keep them restorable
        return {"__ndarray__": encode_array(value)}
    return value


def _unplain(value: Any) -> Any:
    """Invert :func:`_plain` (restores embedded arrays)."""
    if isinstance(value, dict):
        if set(value) == {"__ndarray__"}:
            return decode_array(value["__ndarray__"])
        return {k: _unplain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_unplain(v) for v in value]
    return value


def rng_state(rng: Any) -> dict:
    """The JSON-safe bit-generator state of a (possibly wrapped) Generator."""
    bg = rng.bit_generator  # CountingGenerator delegates transparently
    return {"bit_generator": type(bg).__name__, "state": _plain(bg.state)}


def restore_rng_state(rng: Any, record: dict) -> None:
    """Restore a bit-generator state captured by :func:`rng_state`."""
    bg = rng.bit_generator
    name = type(bg).__name__
    if record.get("bit_generator") != name:
        raise CheckpointMismatchError(
            f"checkpoint was taken with bit generator "
            f"{record.get('bit_generator')!r}, engine uses {name!r}"
        )
    bg.state = _unplain(record["state"])


# ----------------------------------------------------------------------
# fingerprint: refuse to restore into the wrong engine
# ----------------------------------------------------------------------
def engine_fingerprint(engine: Any) -> str:
    """Short digest of the engine's model/lattice/algorithm binding.

    Covers everything that shapes the trajectory: species registry,
    reaction types with rates, lattice shape, the algorithm label
    (which encodes strategy/partition parameters) and the time mode.
    Two engines restore-compatible exactly when fingerprints match.
    """
    import hashlib

    model = engine.model
    spec = {
        "algorithm": engine.algorithm,
        "model": model.name,
        "species": list(model.species.names),
        "reactions": [
            [rt.name, float(rt.rate), rt.group] for rt in model.reaction_types
        ],
        "lattice": list(engine.lattice.shape),
        "time_mode": engine.time_mode,
        "replicas": 1,  # kept so existing checkpoints still match
    }
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------------
# file format: atomic write, CRC-guarded load
# ----------------------------------------------------------------------
def _payload_crc(payload: Mapping[str, Any]) -> int:
    """CRC-32 over the canonical (sorted, compact) payload JSON.

    The one CRC of the ``repro.ckpt/1`` checkpoint and the
    ``repro.jobs/1`` journal envelopes (:mod:`repro.jobs.journal`).
    """
    blob = json.dumps(
        dict(payload), sort_keys=True, separators=(",", ":")
    ).encode()
    return zlib.crc32(blob) & 0xFFFFFFFF


def write_checkpoint(path: str | Path, payload: dict) -> Path:
    """Wrap ``payload`` in the ``repro.ckpt/1`` envelope and write atomically."""
    record = {
        "schema": CKPT_SCHEMA,
        "crc32": _payload_crc(payload),
        "payload": payload,
    }
    return write_json_atomic(path, record)


def _load_raw(path: Path) -> dict:
    """Parse and CRC-check one checkpoint file (no directory context)."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise CheckpointCorruptError(f"{path}: unreadable: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CheckpointCorruptError(
            f"{path}: not valid UTF-8 (corrupt checkpoint): {exc}"
        ) from exc
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointCorruptError(
            f"{path}: not valid JSON (truncated or corrupt checkpoint): {exc}"
        ) from exc
    if not isinstance(record, dict) or not isinstance(record.get("payload"), dict):
        raise CheckpointCorruptError(f"{path}: not a checkpoint envelope")
    if record.get("schema") != CKPT_SCHEMA:
        raise CheckpointCorruptError(
            f"{path}: unknown schema {record.get('schema')!r} "
            f"(expected {CKPT_SCHEMA!r})"
        )
    crc = _payload_crc(record["payload"])
    if record.get("crc32") != crc:
        raise CheckpointCorruptError(
            f"{path}: CRC mismatch (stored {record.get('crc32')!r}, "
            f"computed {crc}) — the file was corrupted after writing"
        )
    return record["payload"]


def checkpoint_paths(directory: str | Path) -> list[Path]:
    """All ``ckpt_*.json`` files of a directory, oldest first.

    Ordered by the trial counter embedded in the file name (monotone
    across resumes), with name as tie-breaker.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for p in directory.iterdir():
        m = _CKPT_NAME.match(p.name)
        if m:
            found.append((int(m.group(1)), p.name, p))
    return [p for _, _, p in sorted(found)]


def last_good_checkpoint(
    directory: str | Path, exclude: Path | None = None
) -> Path | None:
    """Newest checkpoint in ``directory`` that parses and CRC-validates."""
    for path in reversed(checkpoint_paths(directory)):
        if exclude is not None and path.resolve() == Path(exclude).resolve():
            continue
        try:
            _load_raw(path)
        except CheckpointCorruptError:
            continue
        return path
    return None


def load_checkpoint(path: str | Path) -> dict:
    """Load and validate one checkpoint, failing with *useful* diagnostics.

    A truncated or CRC-mismatched file raises
    :class:`CheckpointCorruptError` whose message names the last good
    checkpoint remaining in the same directory (or says there is
    none) — the operator's next move, not a bare traceback.
    """
    path = Path(path)
    try:
        payload = _load_raw(path)
    except CheckpointCorruptError as exc:
        good = last_good_checkpoint(path.parent, exclude=path)
        if good is not None:
            hint = f"; last good checkpoint: {good}"
        else:
            hint = f"; no good checkpoint found in {path.parent}"
        raise CheckpointCorruptError(str(exc) + hint) from exc
    if payload.get("kind") == "ensemble":
        raise CheckpointMismatchError(
            f"{path}: checkpoint kind 'ensemble' is retired and cannot be "
            f"restored; rerun the replicas as a [sweep] seed campaign"
        )
    return payload


# ----------------------------------------------------------------------
# policy + the run-loop hook
# ----------------------------------------------------------------------
class CheckpointPolicy:
    """When to checkpoint: every N step blocks and/or every T seconds.

    Either trigger (or both) may be set; with both, whichever fires
    first wins.  ``CheckpointPolicy()`` defaults to every step block —
    correct for tests and short runs; long sweeps pass
    ``every_seconds`` to bound the I/O overhead instead.
    """

    def __init__(
        self,
        every_steps: int | None = 1,
        every_seconds: float | None = None,
    ):
        if every_steps is not None and every_steps < 1:
            raise ValueError(f"every_steps must be >= 1, got {every_steps}")
        if every_seconds is not None and every_seconds <= 0:
            raise ValueError(f"every_seconds must be > 0, got {every_seconds}")
        if every_steps is None and every_seconds is None:
            raise ValueError("need every_steps and/or every_seconds")
        self.every_steps = every_steps
        self.every_seconds = every_seconds

    def due(self, steps_since: int, seconds_since: float) -> bool:
        """True when a checkpoint is due under either trigger."""
        if self.every_steps is not None and steps_since >= self.every_steps:
            return True
        return (
            self.every_seconds is not None
            and seconds_since >= self.every_seconds
        )

    def __repr__(self) -> str:
        return (
            f"CheckpointPolicy(every_steps={self.every_steps}, "
            f"every_seconds={self.every_seconds})"
        )


def _total_trials(engine: Any) -> int:
    """Monotone trial counter of an engine (scalar or per-replica array)."""
    return int(np.sum(engine.n_trials))


class Checkpointer:
    """Writes policy-driven checkpoints from inside an engine's run loop.

    The engines call :meth:`start` once per ``run()``, :meth:`after_step`
    after every step block and :meth:`finish` on the way out; user code
    only constructs the checkpointer and passes it via ``run(...,
    checkpoint=...)``.

    Signal handling: ``with signal_trap(ck._on_signal):`` around the
    run (as ``repro run <scenario>`` does) makes SIGINT/SIGTERM *defer*
    — a flag is set, and the next ``after_step`` flushes a final
    checkpoint before raising ``KeyboardInterrupt``.  Writing from
    inside a signal handler mid-kernel would risk snapshotting a
    half-updated chunk; the step boundary is the consistent point.

    Write failures (disk full, permissions — or the chaos harness's
    ``fail-emit`` fault) do not kill the run: the error is counted
    (``checkpoint.write_errors``), remembered on :attr:`last_error`,
    and the run continues to the next opportunity.
    """

    def __init__(
        self,
        directory: str | Path,
        policy: CheckpointPolicy | None = None,
        tag: str = "run",
        metrics: MetricsCollector | None = None,
        chaos: "ChaosMonkey | None" = None,
    ):
        self.directory = Path(directory)
        self.policy = policy if policy is not None else CheckpointPolicy()
        self.tag = re.sub(r"[^A-Za-z0-9.-]+", "-", tag) or "run"
        self.metrics = metrics if metrics is not None else current_metrics()
        self.chaos = chaos
        self.last_path: Path | None = None
        self.last_error: Exception | None = None
        self._engine: Any = None
        self._steps_since = 0
        self._last_write = _time.perf_counter()
        self._signal: int | None = None

    # -- engine hooks --------------------------------------------------
    def start(self, engine: Any) -> None:
        """A run loop begins: attach the engine, reset the triggers."""
        self._engine = engine
        self._steps_since = 0
        self._last_write = _time.perf_counter()

    def after_step(self, engine: Any) -> None:
        """One step block completed: flush on signal, else consult policy."""
        self._steps_since += 1
        if self._signal is not None:
            signum, self._signal = self._signal, None
            self.flush(engine)
            raise KeyboardInterrupt(
                f"signal {signum}: final checkpoint flushed to {self.last_path}"
            )
        now = _time.perf_counter()
        if self.policy.due(self._steps_since, now - self._last_write):
            self._write(engine)

    def finish(self, engine: Any) -> None:
        """The run loop ended (normally or not): detach the engine."""
        if self._engine is engine:
            self._engine = None

    def flush(self, engine: Any) -> Path | None:
        """Write a checkpoint unconditionally (final/manual flush)."""
        return self._write(engine)

    # -- writing -------------------------------------------------------
    def _write(self, engine: Any) -> Path | None:
        m = self.metrics
        name = f"ckpt_{self.tag}_{_total_trials(engine):012d}.json"
        try:
            if self.chaos is not None:
                spec = self.chaos.poll("emit")
                if spec is not None:  # the fail-emit fault
                    raise OSError(f"chaos: injected emit failure ({spec})")
            payload = engine.checkpoint_payload()
            path = write_checkpoint(self.directory / name, payload)
        except OSError as exc:
            # a failed write must never kill the run it protects
            self.last_error = exc
            m.inc("checkpoint.write_errors")
            return None
        if self.chaos is not None:
            spec = self.chaos.poll("checkpoint")
            if spec is not None:
                self.chaos.corrupt_file(path, mode=spec.mode)
        self.last_path = path
        self.last_error = None
        self._steps_since = 0
        self._last_write = _time.perf_counter()
        m.inc("checkpoint.writes")
        return path

    # -- signals -------------------------------------------------------
    @property
    def interrupted(self) -> bool:
        """True when a signal arrived and the flush is still pending."""
        return self._signal is not None

    def _on_signal(self, signum: int, frame: Any) -> None:
        """Deferred-flush handler (safe: no I/O inside the handler)."""
        if self._engine is None:
            # nothing running to snapshot: behave like the default handler
            raise KeyboardInterrupt(f"signal {signum}")
        self._signal = signum


@contextmanager
def signal_trap(handler: Callable[[int, Any], None]) -> Iterator[None]:
    """Route SIGINT/SIGTERM to ``handler`` within the block.

    The previous handlers are saved on entry and put back in
    ``finally``, so nested traps unwind in order and an exception never
    leaves ``handler`` installed.  Outside the main thread, where
    handlers cannot be set, the block runs untrapped.  The one trap of
    the package: the checkpointer's deferred flush and the job
    orchestrator's drain both run under it.
    """
    old: dict[int, Any] = {}
    for signum in (_signal.SIGINT, _signal.SIGTERM):
        try:
            old[signum] = _signal.signal(signum, handler)
        except ValueError:  # pragma: no cover - not the main thread
            pass
    try:
        yield
    finally:
        for signum, previous in old.items():
            _signal.signal(signum, previous)
