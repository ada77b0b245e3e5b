"""The protocol lint pass: orchestrate all five analyses.

:func:`lint_protocol` is the ``repro lint --protocol`` entry point.
It pulls *source text* for the shipped protocol layer (the parallel
executor, the resilience checkpoint module, the backend registry and
every engine with a checkpoint pair) via :mod:`inspect` — no process
pools are spawned, no shared memory is created, no signals installed —
and runs:

* the SharedMemory lifecycle typestate pass (SR070/SR071),
* the signal/ambient-stack pairing pass (SR072),
* the checkpoint round-trip field analysis (SR073/SR074),
* the recovery-ladder draw/snapshot audit (SR075/SR076),
* the spawn-safety pass (SR077),

over them.  :func:`protocol_verdict` condenses a run into the
provenance block bench records carry as ``extra["protocol_lint"]``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from types import ModuleType

from ..diagnostics import Diagnostic, LintReport
from .ladder import audit_ladder
from .pairing import audit_pairs
from .roundtrip import audit_roundtrip
from .spawn import audit_spawn
from .typestate import audit_shm_lifecycle

__all__ = [
    "PROTOCOL_CODES",
    "ROUNDTRIP_CLASSES",
    "lint_protocol",
    "protocol_verdict",
]

#: every code this pass can emit (recorded in bench provenance)
PROTOCOL_CODES = (
    "SR070", "SR071", "SR072", "SR073", "SR074",
    "SR075", "SR076", "SR077", "SR078",
)

#: ``module:Class`` pairs audited for checkpoint round-trip agreement
ROUNDTRIP_CLASSES = (
    "repro.dmc.base:SimulatorBase",
    "repro.ensemble.base:EnsembleBase",
    "repro.ca.pndca:PNDCA",
    "repro.ensemble.pndca:EnsemblePNDCA",
)

#: modules audited for signal/ambient-stack pairing discipline
PAIRING_MODULES = (
    "repro.resilience.checkpoint",
    "repro.backends.registry",
    "repro.jobs.orchestrator",
    "repro.jobs.journal",
)

#: the module holding the executor + worker functions
EXECUTOR_MODULE = "repro.parallel.executor"

#: modules whose worker entrypoints get the spawn-safety pass (the
#: executor additionally gets typestate + ladder)
SPAWN_MODULES = (EXECUTOR_MODULE, "repro.jobs.pool")


def _rel(path: str) -> str:
    """Repo-relative rendering of a module path (stable in reports)."""
    norm = path.replace(os.sep, "/")
    marker = "/src/repro/"
    idx = norm.rfind(marker)
    if idx >= 0:
        return norm[idx + 1 :]
    return norm


def _module_source(dotted: str) -> tuple[str, str] | Diagnostic:
    """``(source, relpath)`` of a module, or an SR078 on failure."""
    import importlib

    try:
        module: ModuleType = importlib.import_module(dotted)
        source = inspect.getsource(module)
        path = inspect.getsourcefile(module) or dotted
    except Exception as exc:  # unimportable/frozen: nothing is proven
        return Diagnostic(
            "SR078",
            f"protocol:{dotted}",
            f"cannot load source for {dotted}, nothing is proven: {exc}",
            {"file": dotted, "line": 0},
        )
    return source, _rel(path)


def lint_protocol() -> LintReport:
    """The full protocol pass over the shipped tree."""
    report = LintReport()

    # -- executor: typestate, ladder, spawn ----------------------------
    got = _module_source(EXECUTOR_MODULE)
    if isinstance(got, Diagnostic):
        report.add(got)
    else:
        source, path = got
        report.extend(audit_shm_lifecycle(source, path))
        report.extend(audit_ladder(source, path))

    # -- worker entrypoints: spawn safety ------------------------------
    for dotted in SPAWN_MODULES:
        got = _module_source(dotted)
        if isinstance(got, Diagnostic):
            report.add(got)
            continue
        source, path = got
        report.extend(audit_spawn(source, path))

    # -- resilience/backend layers: pairing ----------------------------
    for dotted in PAIRING_MODULES:
        got = _module_source(dotted)
        if isinstance(got, Diagnostic):
            report.add(got)
            continue
        source, path = got
        report.extend(audit_pairs(source, path))

    # -- engines: checkpoint round trips -------------------------------
    for entry in ROUNDTRIP_CLASSES:
        dotted, _, class_name = entry.partition(":")
        got = _module_source(dotted)
        if isinstance(got, Diagnostic):
            report.add(got)
            continue
        source, path = got
        report.extend(audit_roundtrip(source, path, class_name))

    return report


def protocol_verdict() -> dict:
    """Condensed verdict for bench provenance blocks.

    ``codes`` lists what was checked (not what fired), ``ok`` the
    pass/fail verdict, ``errors`` the codes that actually fired, and
    ``digest`` a short
    stable hash of the full diagnostic payload so two BENCH files can
    be compared for "same verified protocol layer".
    """
    try:
        report = lint_protocol()
        errors = sorted({d.code for d in report.diagnostics})
        ok = report.ok()
    except Exception as exc:  # the verdict must never sink a bench run
        return {
            "codes": list(PROTOCOL_CODES),
            "ok": False,
            "errors": ["verifier-crash"],
            "digest": hashlib.sha256(str(exc).encode()).hexdigest()[:12],
        }
    payload = json.dumps(
        [d.to_dict() for d in report.diagnostics], sort_keys=True
    )
    return {
        "codes": list(PROTOCOL_CODES),
        "ok": ok,
        "errors": errors,
        "digest": hashlib.sha256(payload.encode()).hexdigest()[:12],
    }
