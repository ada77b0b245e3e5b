"""Lint orchestration and the pre-flight gates.

:func:`run_lint` assembles the full static report for a model (and
optionally a partition/tiling): model sanity and the partition race
proof.  :func:`preflight_model` / :func:`preflight_partition`
are the thin gates wired into simulator constructors and experiment
drivers: they raise :class:`LintError` — a ``ValueError`` subclass, so
existing callers that catch ``ValueError`` keep working — when any
error-severity diagnostic fires, and are silent otherwise.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.model import Model
from .diagnostics import LintReport
from .model_lint import lint_model
from .partition_lint import lint_partition, prove_tiling

__all__ = ["LintError", "preflight_model", "preflight_partition", "run_lint"]


class LintError(ValueError):
    """A pre-flight gate failed; carries the offending :class:`LintReport`.

    Subclasses :class:`ValueError` because the gates replace ad-hoc
    ``raise ValueError`` validation in simulator constructors — callers
    (and tests) that catch ``ValueError`` still do.
    """

    def __init__(self, report: LintReport, context: str = ""):
        self.report = report
        head = f"{context}: " if context else ""
        errors = report.errors
        lines = [f"{head}{len(errors)} lint error(s)"]
        lines += [d.render() for d in errors]
        super().__init__("\n".join(lines))


def preflight_model(
    model: Model,
    dt: float | None = None,
    initial_species: Sequence[str] | None = None,
    conserved: Sequence[Mapping[str, float]] | None = None,
) -> LintReport:
    """Gate a model before simulation; raises :class:`LintError` on errors.

    Warnings (dead reactions, unreachable species, ...) do not block —
    they are returned in the report for the caller to surface.
    """
    report = lint_model(
        model, dt=dt, initial_species=initial_species, conserved=conserved
    )
    if not report.ok():
        raise LintError(report, context=f"model {model.name!r}")
    return report


def preflight_partition(partition, model: Model, limit: int = 8) -> LintReport:
    """Gate a partition against a model; raises :class:`LintError` on conflicts.

    On success the partition is marked conflict-free for the model
    (same cache the legacy ``validate_conflict_free`` fills), so
    repeated gating is O(1).
    """
    if model.name in getattr(partition, "conflict_free_for", ()):
        return LintReport()
    report = lint_partition(partition, model, limit=limit)
    if not report.ok():
        raise LintError(
            report,
            context=f"partition {partition.name!r} violates the non-overlap rule",
        )
    partition.conflict_free_for.add(model.name)
    return report


def run_lint(
    model: Model,
    partition=None,
    tiling: tuple[int, Sequence[int]] | None = None,
    shape: Sequence[int] | None = None,
    dt: float | None = None,
    initial_species: Sequence[str] | None = None,
    conserved: Sequence[Mapping[str, float]] | None = None,
    limit: int = 8,
) -> LintReport:
    """Full static report for one model and its parallel decomposition.

    Runs the model sanity pass, then — depending on what is supplied —
    the symbolic tiling proof (``tiling=(m, coeffs)``, optionally
    specialised to a ``shape``) and the partition lint.  Never raises
    on findings; inspect ``report.ok()``.
    """
    from .partition_lint import check_tiling_on_shape

    report = lint_model(
        model, dt=dt, initial_species=initial_species, conserved=conserved
    )
    if tiling is not None:
        m, coeffs = tiling
        if shape is not None:
            report.extend(
                check_tiling_on_shape(model, m, coeffs, shape, limit=limit)
            )
        else:
            proof, conflicts = prove_tiling(model, m, coeffs)
            if proof is not None:
                report.note(proof.statement())
            else:
                from .diagnostics import Diagnostic

                for c in conflicts[:limit]:
                    report.add(
                        Diagnostic(
                            code="SR001",
                            subject=f"tiling((x . {tuple(coeffs)}) mod {m})",
                            message=c.describe(),
                            data=c.to_dict(),
                        )
                    )
    if partition is not None:
        report.extend(lint_partition(partition, model, limit=limit, bounds=True))
    return report
