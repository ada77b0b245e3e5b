"""Atomic file emission: a crashed writer never leaves a truncated file.

:func:`write_text_atomic` / :func:`write_json_atomic` write to a temp
file in the destination directory, fsync, then ``os.replace``: readers
observe either the old content or the complete new content, never a
partial write.  Checkpoints (:mod:`repro.resilience.checkpoint`) and
the benchmark reports go through them.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

from .metrics import RunMetrics

__all__ = ["write_text_atomic", "write_json_atomic"]


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    A crash mid-write leaves at worst a stray ``.tmp`` file — the
    destination is either absent/old or complete, never truncated.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def write_json_atomic(path: str | Path, obj: Any) -> Path:
    """Serialise ``obj`` (sorted keys, indented) and write atomically."""
    return write_text_atomic(
        path, json.dumps(obj, indent=2, sort_keys=True, default=_jsonify) + "\n"
    )


def _jsonify(value: Any) -> Any:
    """Fallback serialiser: numpy scalars/arrays and RunMetrics."""
    if isinstance(value, RunMetrics):
        return value.to_dict()
    if hasattr(value, "item") and getattr(value, "shape", None) == ():
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"not JSON-serialisable: {value!r} ({type(value).__name__})")
