"""Static conflict/race proofs for partitions and models.

``repro.lint`` is a *static analysis* layer over the package: instead
of checking properties empirically per lattice instance at runtime, it
proves (or refutes, with a minimal counterexample) structural
properties of the reaction patterns and the partitions — once,
symbolically, before a simulation ever runs.

Analysis passes, each emitting :class:`Diagnostic` records with stable
``SR0xx`` error codes (authoritative table:
:data:`repro.lint.diagnostics.CODES`; ``python -m repro lint
--list-codes`` prints it):

* :mod:`repro.lint.engine` — the **partition race report** and the
  gates: each counterexample :mod:`repro.partition.conflicts` finds
  (site pair + reaction pair + overlapping cell) becomes an ``SR00x``
  diagnostic; tilings are proven for *all* periodic lattice sizes.
* :mod:`repro.lint.model_lint` — the **model sanity pass**: per-site
  NDCA probability mass at the chosen time step, dead/unreachable
  reactions and species, stoichiometry against declared conservation
  laws (:mod:`repro.core.conservation`).

The kernels, their RNG draws, the C tier and the process-level
protocol are checked dynamically instead.  The differential suite in
``tests/test_backends.py`` demands bit-identity of every backend with
the NumPy reference, and the kernel, ensemble and protocol tests kill
the seeded mutants of DESIGN.md §8, §12 and §13 (the slow
``Test*MutantsAreKilled`` classes).

The complete code registry, generated from
:data:`repro.lint.diagnostics.CODES` (full descriptions live there;
``python -m repro lint --list-codes`` prints them):

{code_table}

Entry points: ``python -m repro lint`` (CI gate, see
:mod:`repro.lint.cli`; ``--scenarios`` for the shipped scenarios) and
the :func:`preflight_model` / :func:`preflight_partition` gates wired
into the experiment drivers and the PNDCA construction paths.
"""

from __future__ import annotations

from .diagnostics import CODES, Diagnostic, LintReport, code_table
from .engine import (
    LintError,
    check_tiling_on_shape,
    lint_partition,
    preflight_model,
    preflight_partition,
    run_lint,
)
from .model_lint import lint_model


def _render_code_table() -> str:
    """The SR-code table as reST, one row per registry entry."""
    rows = [
        (f"``{code}``", sev, slug)
        for code, sev, slug, _desc in code_table()
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    rule = "  ".join("=" * w for w in widths)
    body = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )
    return f"{rule}\n{body}\n{rule}"


if __doc__ is not None:  # absent under ``python -OO``
    __doc__ = __doc__.replace("{code_table}", _render_code_table())

__all__ = [
    "CODES",
    "Diagnostic",
    "LintReport",
    "LintError",
    "check_tiling_on_shape",
    "code_table",
    "lint_model",
    "lint_partition",
    "preflight_model",
    "preflight_partition",
    "run_lint",
]
