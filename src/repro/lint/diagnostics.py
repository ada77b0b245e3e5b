"""Structured diagnostics with stable ``SR0xx`` error codes.

Every lint pass reports through :class:`Diagnostic` records collected
in a :class:`LintReport`.  Codes are *stable*: once published they keep
their meaning forever (tools and CI configurations key on them), so new
checks get new codes and retired checks leave gaps.

Code ranges
-----------
``SR00x``
    partition / tiling race detection (the non-overlap rule),
``SR01x``
    model sanity (probability mass, reachability, conservation),
``SR03x``, ``SR04x``, ``SR05x``
    retired: the RNG draw audit's and the kernel aliasing prover's
    codes.  The differential backend suite and the kernel
    tests kill the kernel and draw mutants they were written against,
    so the ranges stay empty and their numbers are never reused,
``SR06x``
    retired: the native-tier verifier's codes.  The differential
    backend suite kills the C mutants they were written against, so the
    range stays empty and its numbers are never reused,
``SR07x``
    retired: the protocol verifier's codes.  The executor, chaos and
    resilience tests kill every mutant it was written against that
    changes behaviour, so the range stays empty and its numbers are
    never reused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = ["CODES", "Diagnostic", "LintReport", "code_table"]


#: code -> (severity, slug, one-line description).  Append-only.
CODES: dict[str, tuple[str, str, str]] = {
    "SR001": (
        "error",
        "tiling-residue-conflict",
        "modular tiling maps two conflicting sites into one residue class "
        "(fails on every aligned lattice size)",
    ),
    "SR002": (
        "error",
        "tiling-wrap-conflict",
        "modular tiling conflicts under the periodic wrap of a specific "
        "lattice shape",
    ),
    "SR003": (
        "error",
        "partition-conflict",
        "partition places two conflicting sites in the same chunk",
    ),
    "SR004": (
        "info",
        "partition-suboptimal",
        "partition uses more chunks than the clique lower bound requires",
    ),
    "SR005": (
        "error",
        "single-type-conflict",
        "partition is not conflict-free for a single reaction type "
        "(type-partitioned CA precondition)",
    ),
    "SR010": (
        "error",
        "probability-mass",
        "per-site reaction probability mass exceeds 1 at the chosen time step",
    ),
    "SR011": (
        "warning",
        "dead-reaction",
        "reaction can never become enabled from the initial species set",
    ),
    "SR012": (
        "warning",
        "unreachable-species",
        "species is neither present initially nor produced by any reaction",
    ),
    "SR013": (
        "warning",
        "null-reaction",
        "reaction rewrites every site to its current species (no effect)",
    ),
    "SR014": (
        "error",
        "conservation-violated",
        "declared conservation law is not conserved by the stoichiometry",
    ),
    "SR015": (
        "error",
        "non-finite-rate",
        "reaction rate constant is not finite",
    ),
    "SR016": (
        "warning",
        "duplicate-reaction",
        "two reaction types share an identical change pattern",
    ),
}

_SEVERITY_ORDER = {"error": 0, "warning": 1, "info": 2}


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding: a stable code, a location and a message.

    ``subject`` names the artefact being linted (a model, a partition,
    a tiling spec, a simulator pair); ``data`` carries the structured
    counterexample payload (site pair, reaction pair, overlapping cell,
    displacement, ...) so that tools need not parse the message.
    """

    code: str
    subject: str
    message: str
    data: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def severity(self) -> str:
        """``"error"``, ``"warning"`` or ``"info"`` (fixed per code)."""
        return CODES[self.code][0]

    @property
    def slug(self) -> str:
        """Short kebab-case name of the check behind the code."""
        return CODES[self.code][1]

    def render(self) -> str:
        """One-line human-readable rendering."""
        return f"{self.code} {self.severity:<7s} [{self.subject}] {self.message}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (used by ``lint --json``)."""
        return {
            "code": self.code,
            "severity": self.severity,
            "slug": self.slug,
            "subject": self.subject,
            "message": self.message,
            "data": self.data,
        }


class LintReport:
    """An ordered collection of diagnostics plus pass metadata.

    Reports merge (``+=``), sort by severity for rendering, and decide
    the CI verdict: :attr:`ok` is True when no error-severity
    diagnostic is present (``strict=True`` also fails on warnings).
    """

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()):
        self.diagnostics: list[Diagnostic] = list(diagnostics)
        #: free-form one-line notes (proof statements, pass summaries)
        self.notes: list[str] = []

    def add(self, diag: Diagnostic) -> None:
        """Append one diagnostic."""
        self.diagnostics.append(diag)

    def note(self, text: str) -> None:
        """Record a pass note (e.g. a proof statement) for the report."""
        self.notes.append(text)

    def extend(self, other: "LintReport") -> None:
        """Merge another report's diagnostics and notes into this one."""
        self.diagnostics.extend(other.diagnostics)
        self.notes.extend(other.notes)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        """Diagnostics with error severity."""
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        """Diagnostics with warning severity."""
        return [d for d in self.diagnostics if d.severity == "warning"]

    def ok(self, strict: bool = False) -> bool:
        """No errors (and, with ``strict``, no warnings)?"""
        if self.errors:
            return False
        return not (strict and self.warnings)

    def by_code(self, code: str) -> list[Diagnostic]:
        """All diagnostics carrying one code."""
        return [d for d in self.diagnostics if d.code == code]

    def render(self) -> str:
        """Multi-line report: notes, then diagnostics by severity."""
        lines = list(self.notes)
        ordered = sorted(
            self.diagnostics, key=lambda d: _SEVERITY_ORDER[d.severity]
        )
        lines += [d.render() for d in ordered]
        n_err, n_warn = len(self.errors), len(self.warnings)
        lines.append(
            f"lint: {n_err} error(s), {n_warn} warning(s), "
            f"{len(self.diagnostics) - n_err - n_warn} info"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """The whole report as a JSON document.

        Diagnostics are emitted in deterministic ``(code, file, line)``
        order — pass scheduling must not leak into the document, so two
        runs over the same tree diff byte-identically in CI artifacts.
        """

        def sort_key(d: Diagnostic) -> tuple[str, str, int, str, str]:
            data = d.data if isinstance(d.data, dict) else {}
            line = data.get("line", 0)
            return (
                d.code,
                str(data.get("file", "")),
                line if isinstance(line, int) else 0,
                d.subject,
                d.message,
            )

        ordered = sorted(self.diagnostics, key=sort_key)
        return json.dumps(
            {
                "notes": self.notes,
                "diagnostics": [d.to_dict() for d in ordered],
                "ok": self.ok(),
            },
            indent=2,
        )


def code_table() -> list[tuple[str, str, str, str]]:
    """``(code, severity, slug, description)`` rows for documentation."""
    return [
        (code, sev, slug, desc) for code, (sev, slug, desc) in sorted(CODES.items())
    ]
