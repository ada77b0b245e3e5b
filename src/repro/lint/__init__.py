"""Static conflict/race proofs for partitions, kernels and models.

``repro.lint`` is a *static analysis* layer over the package: instead
of checking properties empirically per lattice instance at runtime, it
proves (or refutes, with a minimal counterexample) structural
properties of the reaction patterns, the partitions and the kernels —
once, symbolically, before a simulation ever runs.

Analysis passes, each emitting :class:`Diagnostic` records with stable
``SR0xx`` error codes (authoritative table:
:data:`repro.lint.diagnostics.CODES`; ``python -m repro lint
--list-codes`` prints it):

* :mod:`repro.lint.partition_lint` — the **symbolic partition race
  detector**.  Reaction patterns are lifted to offset algebra (pattern
  footprints as lattice-offset sets, chunk membership as residue
  classes of a modular tiling), so chunk conflict-freedom becomes a
  residue-arithmetic statement that is proven for *all* periodic
  lattice sizes at once; failures come with a minimal counterexample
  (site pair + reaction pair + overlapping cell).
* :mod:`repro.lint.model_lint` — the **model sanity pass**: per-site
  NDCA probability mass at the chosen time step, dead/unreachable
  reactions and species, stoichiometry against declared conservation
  laws (:mod:`repro.core.conservation`).
* :mod:`repro.lint.rng_lint` — the **RNG draw-accounting audit**: an
  AST walk over the sequential kernels and their ensemble counterparts
  in :mod:`repro.core.kernels` clients, tallying random draws per
  trial stream, guarding the bit-identical-replica guarantee of the
  ensemble engine.
* :mod:`repro.lint.kernel_lint` — the **scatter/gather aliasing
  prover** (with :mod:`repro.lint.ir` and
  :mod:`repro.lint.contracts`): an abstract interpreter over the
  vectorized NumPy kernels that proves scatter-write index sets
  duplicate-free, infers symbolic shapes/dtypes, and checks each
  kernel's ``@kernel(reads=..., writes=..., pure=...)`` effect
  contract — including sequential/ensemble twin-contract agreement.
  The C code behind the ``cnative`` twins is checked dynamically
  instead: the differential suite in ``tests/test_backends.py`` demands
  bit-identity with the NumPy reference and kills every seeded C
  mutant.
  ``python -m repro lint --kernels``.

The process-level protocol of the executor, checkpoint and jobs layers
is checked dynamically too: the slow ``TestProtocolMutantsAreKilled``
tests run seeded protocol mutants against the executor, chaos and
resilience tests (DESIGN.md §13).

The complete code registry, generated from
:data:`repro.lint.diagnostics.CODES` (full descriptions live there;
``python -m repro lint --list-codes`` prints them):

{code_table}

Entry points: ``python -m repro lint`` (CI gate, see
:mod:`repro.lint.cli`; ``--kernels`` / ``--scenarios`` for single
passes) and the :func:`preflight_model` /
:func:`preflight_partition` gates wired into the experiment drivers
and the PNDCA construction paths.
"""

from __future__ import annotations

from .contracts import KernelContract, contract_of, kernel, registered_kernels
from .diagnostics import CODES, Diagnostic, LintReport, code_table
from .engine import LintError, preflight_model, preflight_partition, run_lint
from .ir import KernelIR, build_ir
from .kernel_lint import (
    KERNEL_MODULES,
    analyze_kernel,
    check_twins,
    lint_kernels,
    runtime_write_collisions,
)
from .model_lint import lint_model
from .offsets import Conflict, conflict_witnesses
from .partition_lint import (
    TilingProof,
    check_tiling_on_shape,
    lint_partition,
    prove_tiling,
    tiling_conflicts_on_shape,
)
from .rng_lint import audit_draws


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
    "Conflict",
    "TilingProof",
    "KernelContract",
    "KernelIR",
    "KERNEL_MODULES",
    "analyze_kernel",
    "audit_draws",
    "build_ir",
    "check_tiling_on_shape",
    "check_twins",
    "code_table",
    "conflict_witnesses",
    "contract_of",
    "kernel",
    "lint_kernels",
    "lint_model",
    "lint_partition",
    "preflight_model",
    "preflight_partition",
    "prove_tiling",
    "registered_kernels",
    "run_lint",
    "runtime_write_collisions",
    "tiling_conflicts_on_shape",
]
