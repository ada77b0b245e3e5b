"""Run helpers shared by the checkpointable ``repro run`` path.

:func:`run_digest` is the machine-diffable fingerprint every scenario
run prints (``digest <sha256/16> t=... trials=...``): two runs print
the same line exactly when they reached a bit-identical point, so the
CI gates can assert that checkpoint → kill → resume reproduces the
uninterrupted run by comparing two lines of stdout.  The scenario
runner (:mod:`repro.scenario.runner`) and the fingerprint gate
(:mod:`repro.scenario.gates`) use the helpers here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any

import numpy as np

from .checkpoint import ResilienceError, last_good_checkpoint

__all__ = ["run_digest"]


def run_digest(engine: Any) -> str:
    """Deterministic digest of an engine's current state.

    Covers the lattice state, the simulation clock and the trial
    counters — two runs print the same digest exactly when they reached
    a bit-identical point, which is what the CI round-trip gate diffs.
    """
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(engine.state.array).tobytes())
    h.update(np.float64(engine.time).tobytes())
    h.update(np.int64(engine.n_trials).tobytes())
    h.update(np.asarray(engine.executed_per_type, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def _resolve_resume(resume: str | Path, checkpoint_dir: str | Path | None) -> Path:
    """Turn a ``--resume`` argument into a concrete checkpoint file.

    ``--resume <file>`` uses that file; ``--resume <dir>`` (or a bare
    ``--resume`` with ``--checkpoint-dir`` set) picks the newest good
    checkpoint in the directory.
    """
    target = Path(resume) if str(resume) else None
    if target is None or str(target) == ".":
        if checkpoint_dir is None:
            raise ResilienceError(
                "--resume without a path needs --checkpoint-dir to search"
            )
        target = Path(checkpoint_dir)
    if target.is_dir():
        good = last_good_checkpoint(target)
        if good is None:
            raise ResilienceError(f"no good checkpoint found in {target}")
        return good
    return target
