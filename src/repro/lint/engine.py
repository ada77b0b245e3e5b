"""Lint orchestration, the partition report and the pre-flight gates.

:mod:`repro.partition` decides the non-overlap rule; this module only
reports its counterexamples, and :func:`conflict_report` is the one
place that picks their code: ``SR001`` (a tiling's residue collision,
fatal on every lattice size), ``SR002`` (a collision made by the wrap of
one misaligned shape) or ``SR003`` (an explicit partition).

:func:`run_lint` assembles the full static report for a model (and
optionally a partition/tiling).  :func:`preflight_model` /
:func:`preflight_partition` are the gates wired into simulator
constructors and experiment drivers: they raise :class:`LintError`, a
``ValueError`` subclass, when any error-severity diagnostic fires.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from ..core.model import Model
from .diagnostics import Diagnostic, LintReport
from .model_lint import lint_model

if TYPE_CHECKING:  # pragma: no cover
    from ..partition.conflicts import Conflict
    from ..partition.partition import TilingSpec

# repro.partition is imported where used: `repro run` builds its parser
# from repro.lint, and a sequential scenario never loads the partitions

__all__ = [
    "LintError",
    "check_tiling_on_shape",
    "conflict_report",
    "lint_partition",
    "preflight_model",
    "preflight_partition",
    "run_lint",
]


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


def conflict_report(
    conflicts: Sequence[Conflict],
    subject: str,
    tiling: TilingSpec | None,
    clean: str,
) -> LintReport:
    """One diagnostic per counterexample, or the note ``clean`` if none.

    ``tiling`` is the modular tiling the conflicts were found in
    (``SR001``/``SR002``), ``None`` for an explicit partition
    (``SR003``).
    """
    from ..partition.conflicts import residue_collides

    report = LintReport()
    for c in conflicts:
        if tiling is None:
            code = "SR003"
        elif residue_collides(tiling.coeffs, tiling.m, c.displacement):
            code = "SR001"
        else:
            code = "SR002"
        report.add(
            Diagnostic(code=code, subject=subject, message=c.describe(), data=c.to_dict())
        )
    if not conflicts:
        report.note(clean)
    return report


def check_tiling_on_shape(
    model: Model,
    m: int,
    coeffs: Sequence[int],
    shape: Sequence[int],
    limit: int = 8,
) -> LintReport:
    """Lint a modular tiling against a model on one lattice shape.

    Residue-class collisions are reported as ``SR001`` (they fail on
    every aligned size too); collisions introduced only by the wrap of
    this particular shape as ``SR002``.
    """
    from ..partition.conflicts import tiling_conflicts_on_shape
    from ..partition.partition import TilingSpec

    conflicts = tiling_conflicts_on_shape(model, m, coeffs, shape, limit=limit)
    spec = TilingSpec(m, tuple(int(c) for c in coeffs))
    subject = f"tiling((x . {spec.coeffs}) mod {m}) on {tuple(shape)}"
    return conflict_report(
        conflicts, subject, spec,
        clean=f"{subject}: conflict-free for model {model.name!r} "
        f"(borrow analysis over all conflict displacements)",
    )


def lint_partition(
    partition,
    model: Model,
    limit: int = 8,
    bounds: bool = False,
) -> LintReport:
    """Lint any :class:`~repro.partition.partition.Partition` instance.

    Reports the counterexamples of
    :meth:`~repro.partition.partition.Partition.find_conflicts`:
    ``SR001``/``SR002`` for tiling partitions, ``SR003`` for explicit
    ones.  A partition already known conflict-free for the model's
    conflict set is not searched again.  With ``bounds=True`` the chunk
    count is additionally compared against the clique lower bound
    (``SR004``, informational).
    """
    conflicts = (
        [] if partition.is_conflict_free(model)
        else partition.find_conflicts(model, limit=limit)
    )
    report = conflict_report(
        conflicts, partition.name, partition.tiling,
        clean=f"partition {partition.name!r}: conflict-free for model {model.name!r}",
    )
    if bounds:
        from ..partition.coloring import clique_lower_bound

        lower = clique_lower_bound(model)
        if partition.m > lower:
            report.add(
                Diagnostic(
                    code="SR004",
                    subject=partition.name,
                    message=(
                        f"{partition.m} chunks where the clique lower bound "
                        f"is {lower} (fewer chunks => more parallelism)"
                    ),
                    data={"m": partition.m, "clique_lower_bound": lower},
                )
            )
    return report


def preflight_partition(partition, model: Model, limit: int = 8) -> LintReport:
    """The non-overlap gate: raises :class:`LintError` on conflicts.

    The one raising gate for the rule; its message says the partition
    "violates the non-overlap rule" and lists up to ``limit``
    counterexamples.  The verdict is cached on the partition under the
    model's conflict difference set (see
    :meth:`~repro.partition.partition.Partition.is_conflict_free`), so
    gating the same partition again is O(1).
    """
    report = lint_partition(partition, model, limit=limit)
    if not report.ok():
        raise LintError(
            report,
            context=f"partition {partition.name!r} violates the non-overlap rule",
        )
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
            from ..partition.conflicts import prove_tiling
            from ..partition.partition import TilingSpec

            proof, conflicts = prove_tiling(model, m, coeffs)
            report.extend(conflict_report(
                conflicts[:limit],
                f"tiling((x . {tuple(coeffs)}) mod {m})",
                TilingSpec(m, tuple(coeffs)),
                clean=proof.statement() if proof is not None else "",
            ))
    if partition is not None:
        report.extend(lint_partition(partition, model, limit=limit, bounds=True))
    return report
