"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table/figure of the paper (see
DESIGN.md for the mapping) and, besides timing, writes the experiment's
plain-text report to ``benchmarks/reports/<name>.txt`` so the
reproduction artefacts survive the run.  All writes are atomic
(temp file + ``os.replace``): an interrupted run never leaves a
truncated report behind.
"""

from pathlib import Path

import pytest

from repro.obs import write_text_atomic

REPORT_DIR = Path(__file__).parent / "reports"


@pytest.fixture(scope="session")
def report_dir() -> Path:
    REPORT_DIR.mkdir(exist_ok=True)
    return REPORT_DIR


@pytest.fixture
def save_report(report_dir):
    """Atomically write an experiment report; returns the path."""

    def _save(name: str, text: str) -> Path:
        path = report_dir / f"{name}.txt"
        write_text_atomic(path, text + "\n")
        return path

    return _save
