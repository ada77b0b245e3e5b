"""Crash-safe batch orchestration: journaled sweeps on supervised workers.

The package turns a scenario sweep (or an explicit scenario list) into
a *campaign*: a job set keyed by ``(scenario digest, params, seed)``,
executed on supervised worker processes with per-job deadlines and the
retry → backoff → respawn → sticky-serial recovery ladder it shares with
the chunk executor (:mod:`repro.resilience.supervisor`), every state
transition journaled write-ahead in the CRC-checked ``repro.jobs/1``
JSONL format so a killed campaign resumes with ``repro sweep --resume``
— completed points replay from the journal as perfect cache hits
(determinism makes their recorded digest lines bit-identical to a
re-run).

Layout::

    journal.py       the repro.jobs/1 WAL: envelope, writer, torn-tail
                     tolerant replay, job keys
    orchestrator.py  job expansion, the state machine, the sweep-point
                     worker handler, graceful signal drain
    cli.py           the `repro sweep` subcommand

Quick start::

    from repro.jobs import JobOrchestrator
    from repro.scenario import find_scenario

    orch = JobOrchestrator((find_scenario("zgb"),), n_workers=4,
                           journal_dir="campaign")
    orch.run()                  # killed? run(resume=True) finishes it
"""

from .journal import (
    JOBS_SCHEMA,
    JOURNAL_NAME,
    JournalCorruptError,
    JournalError,
    JournalReplay,
    JournalWriter,
    decode_record,
    encode_record,
    job_key,
    replay_journal,
)
from .orchestrator import Job, JobOrchestrator

__all__ = [
    "JOBS_SCHEMA",
    "JOURNAL_NAME",
    "Job",
    "JobOrchestrator",
    "JournalCorruptError",
    "JournalError",
    "JournalReplay",
    "JournalWriter",
    "decode_record",
    "encode_record",
    "job_key",
    "replay_journal",
]
