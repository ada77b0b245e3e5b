"""The ``repro.jobs/1`` write-ahead journal: append-only, CRC-checked JSONL.

Every state transition of a batch campaign (submit, start, done, fail,
degrade, drain) is one JSON line appended to ``journal.jsonl`` *before*
the orchestrator acts on it — the write-ahead discipline that makes a
killed campaign resumable.  Each line is a small envelope::

    {"crc32": <int>, "payload": {...}, "schema": "repro.jobs/1"}

with the CRC-32 over the canonical (sorted, compact) payload JSON — the
one CRC the ``repro.ckpt/1`` checkpoints use too.  Lines are
serialised *before* the file is touched and written with a single
``write`` call plus flush and ``fsync``, so a crash can damage at most
the final line — the *torn tail*.

Reload (:func:`replay_journal`) distinguishes the two damage shapes:

* a torn **tail** — the last non-empty line fails to parse or
  CRC-validate (a write cut short by the crash).  It is dropped, the
  replay is marked ``torn`` and the last good entry is named, and the
  campaign resumes from the preceding record;
* damage **before** the tail — a flipped byte or truncation inside the
  settled prefix.  That is never a torn write; it raises
  :class:`JournalCorruptError` naming the line, because silently
  dropping settled history would re-run completed (or worse, skip
  incomplete) jobs.

Job identity is :func:`job_key`: a SHA-256/16 over the scenario's
content digest plus the canonical override pairs of one sweep point —
the ``(digest, params, seed)`` cache key of the scenario layer in file
-name-safe form.  Determinism makes every ``done`` record a perfect
cache hit: resuming replays the journal and re-prints the recorded
digest lines bit for bit instead of re-running the points.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..resilience.checkpoint import _payload_crc

__all__ = [
    "JOBS_SCHEMA",
    "JOURNAL_NAME",
    "JournalError",
    "JournalCorruptError",
    "JournalWriter",
    "JournalReplay",
    "job_key",
    "encode_record",
    "decode_record",
    "replay_journal",
]

#: schema identifier stamped into every journal line
JOBS_SCHEMA = "repro.jobs/1"

#: file name of the journal inside a ``--journal`` directory
JOURNAL_NAME = "journal.jsonl"


class JournalError(RuntimeError):
    """Base class for journal failures (CLI exit code 2)."""


class JournalCorruptError(JournalError):
    """A settled (non-tail) journal line is damaged or malformed."""


def job_key(digest: str, overrides: Mapping[str, Any]) -> str:
    """Stable identity of one sweep point: sha-256/16 of (digest, overrides).

    The same function keys journal records, per-job checkpoint
    subdirectories and the resume cache, so every layer agrees on what
    "the same job" means.
    """
    blob = json.dumps(
        {"digest": digest, "overrides": dict(overrides)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def encode_record(payload: Mapping[str, Any]) -> str:
    """One journal line (no newline): the CRC envelope around ``payload``."""
    return json.dumps(
        {
            "schema": JOBS_SCHEMA,
            "crc32": _payload_crc(payload),
            "payload": dict(payload),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def decode_record(line: str) -> dict:
    """Parse and CRC-check one journal line; returns the payload.

    Raises :class:`JournalCorruptError` on any damage — JSON that does
    not parse, a missing envelope field, a schema mismatch, or a CRC
    that disagrees with the payload.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise JournalCorruptError(f"not valid JSON: {exc}") from exc
    if not isinstance(record, dict) or not isinstance(
        record.get("payload"), dict
    ):
        raise JournalCorruptError("not a journal envelope")
    if record.get("schema") != JOBS_SCHEMA:
        raise JournalCorruptError(
            f"unknown schema {record.get('schema')!r} (expected {JOBS_SCHEMA!r})"
        )
    crc = _payload_crc(record["payload"])
    if record.get("crc32") != crc:
        raise JournalCorruptError(
            f"CRC mismatch (stored {record.get('crc32')!r}, computed {crc})"
        )
    return record["payload"]


class JournalWriter:
    """Appends CRC-enveloped records to the journal, one line per call.

    Each record is serialised *before* the file is touched (a
    serialisation error can never leave a partial line), written with a
    single ``write`` call, flushed and fsynced (the WAL guarantee), so
    a completed ``append`` survives power loss.

    :attr:`last_line_bytes` is the byte length (newline included) of
    the most recent line — the chaos harness uses it to confine
    ``corrupt-journal`` damage to the tail record, the only region a
    real torn write can touch.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.last_line_bytes = 0
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, payload: Mapping[str, Any]) -> None:
        """Journal one record (write + flush + fsync)."""
        line = encode_record(payload) + "\n"
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.last_line_bytes = len(line.encode())

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._fh is not None:
            fh, self._fh = self._fh, None
            fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass
class JournalReplay:
    """The validated content of one journal file.

    ``records`` holds every settled payload in append order; ``torn``
    is True when a damaged tail line was detected and dropped
    (``torn_reason`` says how it was damaged).
    """

    path: Path
    records: list[dict]
    torn: bool = False
    torn_reason: str | None = None
    #: byte length of the settled prefix (everything before the torn
    #: record); resume truncates the file here before appending, so the
    #: dropped tail can never end up inside settled history
    settled_bytes: int = 0

    @property
    def last_good(self) -> dict | None:
        """The final settled payload (what a resume continues from)."""
        return self.records[-1] if self.records else None

    def describe_tail(self) -> str:
        """Operator-facing one-liner about the recovery decision."""
        if not self.torn:
            return f"journal intact: {len(self.records)} record(s)"
        last = self.last_good
        if last is None:
            return (
                f"journal: dropped torn tail record ({self.torn_reason}); "
                f"no settled entries remain"
            )
        what = last.get("event", "?")
        key = last.get("key")
        where = f"{what} {key}" if key else what
        return (
            f"journal: dropped torn tail record ({self.torn_reason}); "
            f"last good entry: {where} (record {len(self.records)})"
        )

    def completed(self) -> dict[str, dict]:
        """``key -> done payload`` for every job that finished."""
        return {
            r["key"]: r
            for r in self.records
            if r.get("event") == "done" and "key" in r
        }

    def events(self, kind: str) -> Iterator[dict]:
        """The settled payloads of one event kind, in append order."""
        return (r for r in self.records if r.get("event") == kind)

    def truncate_torn_tail(self) -> None:
        """Physically drop the torn record (no-op on an intact journal).

        Appending new records *after* a damaged line would turn the
        torn tail into mid-file corruption — which the next replay
        rightly refuses — so a resume must cut the file back to the
        settled prefix first.
        """
        if not self.torn:
            return
        with open(self.path, "r+b") as fh:
            fh.truncate(self.settled_bytes)


def replay_journal(path: str | Path) -> JournalReplay:
    """Reload a journal, dropping a torn tail and refusing worse damage.

    Only the *final* non-empty line may fail validation — that is the
    signature of a write cut short by a crash, and it is dropped (the
    WAL discipline guarantees the orchestrator never acted on it).
    A bad line with settled lines after it is corruption of history and
    raises :class:`JournalCorruptError` naming the line number.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"{path}: unreadable journal: {exc}") from exc
    lines = data.split(b"\n")
    # byte offset where each split line starts (split removed the \n)
    offsets: list[int] = []
    cursor = 0
    for raw in lines:
        offsets.append(cursor)
        cursor += len(raw) + 1
    # indices of non-empty lines; trailing b"" after the final newline
    # (or blank separators) carry no records
    occupied = [i for i, raw in enumerate(lines) if raw.strip()]
    records: list[dict] = []
    torn = False
    torn_reason: str | None = None
    settled_bytes = len(data)
    for pos, i in enumerate(occupied):
        raw = lines[i]
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            text = None
            failure: JournalCorruptError | None = JournalCorruptError(
                f"not valid UTF-8: {exc}"
            )
        else:
            failure = None
        if failure is None:
            try:
                assert text is not None
                records.append(decode_record(text))
                continue
            except JournalCorruptError as exc:
                failure = exc
        if pos == len(occupied) - 1:
            # damage confined to the final record: a torn write
            torn = True
            torn_reason = str(failure)
            settled_bytes = offsets[i]
            break
        raise JournalCorruptError(
            f"{path}: line {i + 1}: {failure} — settled records follow, "
            f"so this is not a torn tail; refusing to guess at history"
        )
    return JournalReplay(
        path=path,
        records=records,
        torn=torn,
        torn_reason=torn_reason,
        settled_bytes=settled_bytes,
    )
